package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"histburst"
	"histburst/internal/segstore"
	"histburst/internal/stream"
	"histburst/internal/subscribe"
	"histburst/internal/wire"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Parent is the span open on the replay
// goroutine when it began (0 = none), so nested calls — the subscription
// evaluator inside a stager commit — subtract from their parent's self
// time.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out once, at the end.
// It is used from one goroutine.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int32
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

func (tr *tracer) begin(name string) int32 {
	var parent int32
	if n := len(tr.open); n > 0 {
		parent = tr.open[n-1]
	}
	id := int32(len(tr.spans) + 1)
	tr.spans = append(tr.spans, span{ID: id, Parent: parent, Name: name, Start: int64(time.Since(tr.t0))})
	tr.open = append(tr.open, id)
	return id
}

func (tr *tracer) end(id int32) {
	tr.spans[id-1].End = int64(time.Since(tr.t0))
	tr.open = tr.open[:len(tr.open)-1]
}

// do runs fn inside a span.
func (tr *tracer) do(name string, fn func()) {
	id := tr.begin(name)
	fn()
	tr.end(id)
}

// durations returns the durations of every span called name.
func (tr *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range tr.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

func (tr *tracer) p50(name string, unit time.Duration) float64 {
	return median(durations(tr.durations(name), unit))
}

// write saves the spans as one JSON document.
func (tr *tracer) write(path, workload string, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"workload": workload, "seed": seed, "spans": tr.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// spanCost measures what recording one span costs, so the traced run can
// state its own overhead.
func spanCost() time.Duration {
	tr := newTracer()
	const n = 100_000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		tr.end(tr.begin("x"))
	}
	return time.Since(t0) / n
}

// runTraced replays the workload's inputs in process through the layers'
// public Go functions — segstore (Stager, WAL, queries, checkpoint, open),
// subscribe (Hub.Evaluate), the histburst kernels — and then measures the
// serving layers against a burstd started on the replayed store. It checks
// the in-process answers like the end-to-end run and reports per-layer
// metrics.
func runTraced(r *run, tracePath string) (*result, error) {
	tr := newTracer()
	if err := os.RemoveAll(r.work); err != nil {
		return nil, err
	}
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(2 << 30))
	dir := filepath.Join(r.work, "store")
	if r.w.Prepared {
		if err := prepare(dir, r.hist.elems, r.w.Decay); err != nil {
			return nil, err
		}
	}
	// burstd fsyncs every commit (-wal-sync always). The replay leaves the
	// WAL unsynced on append and fsyncs it right after each batch, so the
	// Stager's own work and the per-commit fsync are timed apart.
	cfg := storeConfig(r.w.Decay)
	cfg.WALSync = segstore.WALSyncOff
	st, err := segstore.Open(dir, cfg)
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	defer func() {
		if st != nil {
			st.Close()
		}
	}()
	hub := subscribe.NewHub(subscribe.Config{Fold: func(e uint64) uint64 { return e % st.K() }})
	defer hub.Close()
	live := r.live()
	for _, sub := range subscriptions(live) {
		if _, err := hub.Register(sub); err != nil {
			return nil, fmt.Errorf("register: %w", err)
		}
	}
	alertQ := hub.AttachAll("bench", live.expectedAlerts()+16)
	stager := segstore.NewStager(st)
	stager.SetCommitHook(func(committed stream.Stream, _ int64) {
		tr.do("subscribe.evaluate", func() { hub.Evaluate(committed) })
	})

	// Ingest: the live batches through the Stager, each followed by its
	// WAL fsync, cut and settled at seals as in the end-to-end run.
	gen0 := st.Generation()
	bs, seals := sealBatches(live.elems, r.w.Batch)
	ingest := tr.begin("replay.ingest")
	for i, b := range bs {
		var res segstore.BatchResult
		tr.do("segstore.stager_append", func() { res = stager.Append(b) })
		r.ops++
		if res.Err != nil || res.Appended != int64(len(b)) {
			return nil, fail(fmt.Sprintf("Stager.Append batch %d", i), "appended %d of %d: %v", res.Appended, len(b), res.Err)
		}
		var err error
		tr.do("segstore.sync_wal", func() { err = st.SyncWAL() })
		if err != nil {
			return nil, fail("Store.SyncWAL", "%v", err)
		}
		if seals[i] && len(r.w.Decay) > 0 {
			if err := waitSettled(storeProbe(st), r.w.Decay); err != nil {
				return nil, fail("settle", "%v", err)
			}
		}
	}
	tr.end(ingest)
	settle := tr.begin("replay.settle")
	if err := waitSettled(storeProbe(st), r.w.Decay); err != nil {
		return nil, fail("settle", "%v", err)
	}
	gens := st.Generation() - gen0
	tr.end(settle)
	if n := st.N(); n != r.or.n {
		return nil, fail("Store.N", "store holds %d elements, %d were appended", n, r.or.n)
	}

	// Queries on the settled store, answers checked against the oracle.
	points, times, events := r.points, r.times, r.events
	if len(points) == 0 {
		// The dashboard's own queries come from its live poller; replay a
		// month-wide set of the same shapes instead.
		rng := rand.New(rand.NewSource(r.seed*13 + 3))
		points = pointBatches(rng, r.hist, verifyBatches, 2*tau, r.last)
		for i := 0; i < 50; i++ {
			times = append(times, pickEvent(rng, r.hist))
			events = append(events, alignedInstant(rng, 2*tau, r.last))
		}
	}
	sn := st.Snapshot()
	segments := len(sn.Segments())
	for _, qs := range points {
		ans := make([]float64, len(qs))
		tr.do("segstore.point", func() {
			sn := st.Snapshot()
			for j, q := range qs {
				ans[j], _ = sn.Burstiness(q.Event, q.T, tau)
			}
		})
		r.ops++
		for j, q := range qs {
			r.or.checkPoint(q.Event, q.T, ans[j], r.last)
		}
	}
	on := r.plantedOn()
	for _, e := range times {
		var ranges []histburst.TimeRange
		var err error
		tr.do("segstore.times", func() { ranges, err = st.Snapshot().BurstyTimes(e, plantedTheta, tau) })
		r.ops++
		if err != nil {
			return nil, fail("Snapshot.BurstyTimes", "%v", err)
		}
		var rs []timeRange
		for _, rg := range ranges {
			rs = append(rs, timeRange{rg.Start, rg.End})
		}
		if err := r.or.checkTimes(e, plantedTheta, rs, r.last, on); err != nil {
			return nil, fail("Snapshot.BurstyTimes", "%v", err)
		}
	}
	ps := r.allPlanted()
	for _, t := range events {
		var ids []uint64
		var err error
		tr.do("segstore.events", func() { ids, err = st.Snapshot().BurstyEvents(t, plantedTheta, tau) })
		r.ops++
		if err != nil {
			return nil, fail("Snapshot.BurstyEvents", "%v", err)
		}
		if err := r.or.checkEvents(t, plantedTheta, ids, r.last, ps); err != nil {
			return nil, fail("Snapshot.BurstyEvents", "%v", err)
		}
	}
	// Count-Min only overcounts, so a cumulative count may fall short of
	// the exact one by no more than the PBE-2 and resolution error, on
	// narrowed sketches too: the accuracy grid's instants, checked term by
	// term (see checkCumulative for decayed tiers).
	sn = st.Snapshot()
	for _, qs := range accuracyGrid(r.hist, r.last) {
		for _, q := range qs {
			for i := int64(0); i < 3; i++ {
				t := q.T - i*tau
				r.ops++
				r.or.checkCumulative(q.Event, t, sn.CumulativeFrequency(q.Event, t), r.last)
			}
		}
	}
	if err := r.or.verdict(); err != nil {
		return nil, fail("answers outside their bound", "%v", err)
	}
	alerts := alertQ.Len()
	if alerts != live.expectedAlerts() || alertQ.Dropped() != 0 {
		return nil, fail("Hub.Evaluate", "%d alerts for %d planted and probe bursts (quiet events must stay silent)", alerts, live.expectedAlerts())
	}

	// Checkpoint, close, and reopen the settled store.
	if err := func() (err error) {
		tr.do("segstore.checkpoint", func() { err = st.Checkpoint(true) })
		return err
	}(); err != nil {
		return nil, fail("Store.Checkpoint", "%v", err)
	}
	if err := st.Close(); err != nil {
		return nil, fail("Store.Close", "%v", err)
	}
	st = nil
	for i := 0; i < recoverReps; i++ {
		var s2 *segstore.Store
		var err error
		tr.do("segstore.open", func() { s2, err = segstore.Open(dir, cfg) })
		r.ops++
		if err != nil {
			return nil, fail("segstore.Open", "%v", err)
		}
		n := s2.N()
		if err := s2.Close(); err != nil {
			return nil, fail("Store.Close", "%v", err)
		}
		if n != r.or.n {
			return nil, fail("segstore.Open", "reopened store holds %d elements, %d were appended", n, r.or.n)
		}
	}

	if err := r.traceKernels(tr, points); err != nil {
		return nil, err
	}
	if err := r.traceServing(tr, dir, points); err != nil {
		return nil, err
	}

	fmt.Fprintf(os.Stderr, "perfbench: traced %s seed %d: %s\n", r.w.Name, r.seed, r.or.misses())
	cost := spanCost()
	fmt.Fprintf(os.Stderr, "perfbench: traced %s seed %d: %d spans at %v each (%.2f%% of the replay's span time)\n",
		r.w.Name, r.seed, len(tr.spans), cost, 100*float64(cost)*float64(len(tr.spans))/float64(totalSpanTime(tr)))
	if err := tr.write(tracePath, r.w.Name, r.seed); err != nil {
		return nil, err
	}
	segPoint := tr.p50("segstore.point", time.Microsecond)
	m := map[string]metric{
		"segstore.stager_append_us": {tr.p50("segstore.stager_append", time.Microsecond), "us"},
		"segstore.sync_wal_us":      {tr.p50("segstore.sync_wal", time.Microsecond), "us"},
		"segstore.checkpoint_ms":    {tr.p50("segstore.checkpoint", time.Millisecond), "ms"},
		"segstore.generations":      {float64(gens), "count"},
		"segstore.open_ms":          {tr.p50("segstore.open", time.Millisecond), "ms"},
		"segstore.point_us":         {segPoint, "us"},
		"segstore.segments":         {float64(segments), "count"},
		"segstore.times_ms":         {tr.p50("segstore.times", time.Millisecond), "ms"},
		"segstore.events_us":        {tr.p50("segstore.events", time.Microsecond), "us"},
		"subscribe.evaluate_us":     {tr.p50("subscribe.evaluate", time.Microsecond), "us"},
		"subscribe.alerts":          {float64(alerts), "count"},
		"histburst.build_ms":        {tr.p50("histburst.build", time.Millisecond), "ms"},
		"histburst.merge_ms":        {tr.p50("histburst.merge", time.Millisecond), "ms"},
		"histburst.downsample_ms":   {tr.p50("histburst.downsample", time.Millisecond), "ms"},
		"histburst.save_ms":         {tr.p50("histburst.save", time.Millisecond), "ms"},
		"histburst.load_ms":         {tr.p50("histburst.load", time.Millisecond), "ms"},
		"histburst.point_ns":        {tr.p50("histburst.point", time.Nanosecond) / pointBatch, "ns"},
		"wire.rtt_us":               {tr.p50("wire.stats", time.Microsecond), "us"},
		"wire.point_overhead_us":    {tr.p50("wire.point", time.Microsecond) - segPoint, "us"},
		"http.point_overhead_us":    {tr.p50("http.point", time.Microsecond) - segPoint, "us"},
		"wire.append_overhead_us":   {tr.p50("wire.append", time.Microsecond) - tr.p50("segstore.stager_append", time.Microsecond) - tr.p50("segstore.sync_wal", time.Microsecond), "us"},
	}
	return &result{Correct: true, Attempted: r.ops, Failed: 0, Metrics: m}, nil
}

func totalSpanTime(tr *tracer) int64 {
	var total int64
	for _, s := range tr.spans {
		if s.Parent == 0 {
			total += s.End - s.Start
		}
	}
	return max(total, 1)
}

// traceKernels times the histburst kernels the store's background loops
// run, on the first heads the workload's history seals into: building a
// segment's sketch, merging a compaction run, downsampling it into the
// first decay tier, saving and loading it, and point queries against it.
func (r *run) traceKernels(tr *tracer, points [][]pointQuery) error {
	hs := heads(r.hist.elems)
	var parts []*histburst.Detector
	for _, h := range hs[:min(len(hs)-1, segstore.DefaultCompactFanout)] {
		var det *histburst.Detector
		var err error
		tr.do("histburst.build", func() {
			det, err = histburst.New(eventSpace, histburst.WithPBE2(gamma), histburst.WithSeed(1))
			if err != nil {
				return
			}
			for _, el := range h {
				det.Append(el.Event, el.Time)
			}
			det.Finish()
		})
		r.ops++
		if err != nil {
			return fail("histburst.New", "%v", err)
		}
		parts = append(parts, det)
	}
	if len(parts) < 2 {
		return fmt.Errorf("history too short for the kernel replay: %d seal-sized chunks", len(parts))
	}
	for i := 0; i < 3; i++ {
		var merged, down *histburst.Detector
		var err error
		tr.do("histburst.merge", func() { merged, err = histburst.MergeDetectors(parts) })
		r.ops++
		if err != nil {
			return fail("histburst.MergeDetectors", "%v", err)
		}
		t1 := decayTiers[0]
		tr.do("histburst.downsample", func() { down, err = histburst.DownsampleDetectors(parts, t1.Gamma, t1.Res, t1.W) })
		r.ops++
		if err != nil {
			return fail("histburst.DownsampleDetectors", "%v", err)
		}
		var want int64
		for _, p := range parts {
			want += p.N()
		}
		if merged.N() != want || down.N() != want {
			return fail("histburst.MergeDetectors", "merged %d / downsampled %d elements of %d", merged.N(), down.N(), want)
		}
		var buf bytes.Buffer
		tr.do("histburst.save", func() { err = merged.Save(&buf) })
		r.ops++
		if err != nil {
			return fail("Detector.Save", "%v", err)
		}
		var loaded *histburst.Detector
		tr.do("histburst.load", func() { loaded, err = histburst.Load(&buf) })
		r.ops++
		if err != nil {
			return fail("histburst.Load", "%v", err)
		}
		if i == 0 {
			// Point queries against the merged run, inside its span.
			lo, hi := parts[0].MinTime()+2*tau, parts[len(parts)-1].MaxTime()
			rng := rand.New(rand.NewSource(r.seed*17 + 1))
			for k := 0; k < 500; k++ {
				qs := pointBatches(rng, r.hist, 1, lo, hi)[0]
				tr.do("histburst.point", func() {
					for _, q := range qs {
						loaded.Burstiness(q.Event, q.T, tau) //nolint:errcheck // τ > 0 by construction
					}
				})
				r.ops++
			}
		}
	}
	return nil
}

// traceServing starts burstd on the replayed store and times the serving
// layers around the same work the in-process spans timed: STATS round
// trips, the point batches over HBP1 and HTTP/JSON, and appends of the
// workload's batch size.
func (r *run) traceServing(tr *tracer, dir string, points [][]pointQuery) error {
	d, err := newDaemon(r.bin, dir, decayFlag(r.w.Decay), r.log)
	if err != nil {
		return err
	}
	if err := d.start(); err != nil {
		return fail("start burstd", "%v", err)
	}
	defer d.kill()
	c, err := wire.Dial(d.wireAddr, 5*time.Second)
	if err != nil {
		return fail("dial HBP1", "%v", err)
	}
	defer c.Close()
	for i := 0; i < 500; i++ {
		var err error
		tr.do("wire.stats", func() { _, err = c.Stats() })
		r.ops++
		if err != nil {
			return fail("STATS", "%v", err)
		}
	}
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}, Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()
	for i, qs := range points {
		if i == verifyBatches {
			break
		}
		wq := make([]wire.PointQuery, len(qs))
		hq := make([]map[string]int64, len(qs))
		for j, q := range qs {
			wq[j] = wire.PointQuery{Event: q.Event, T: q.T, Tau: tau}
			hq[j] = map[string]int64{"event": int64(q.Event), "t": q.T, "tau": tau}
		}
		tr.do("wire.point", func() { _, err = c.Point(wq) })
		r.ops++
		if err != nil {
			return fail("POINT", "%v", err)
		}
		body, _ := json.Marshal(map[string]any{"queries": hq})
		var resp *http.Response
		tr.do("http.point", func() {
			resp, err = client.Post("http://"+d.httpAddr+"/v1/query/batch", "application/json", bytes.NewReader(body))
			if err == nil {
				var res struct{ Results []json.RawMessage }
				err = json.NewDecoder(resp.Body).Decode(&res)
				resp.Body.Close()
				if err == nil && (resp.StatusCode != http.StatusOK || len(res.Results) != len(qs)) {
					err = fmt.Errorf("HTTP %d with %d results for %d queries", resp.StatusCode, len(res.Results), len(qs))
				}
			}
		})
		r.ops++
		if err != nil {
			return fail("POST /v1/query/batch", "%v", err)
		}
	}
	// Appends past the frontier at the workload's batch size;
	// wire.append_overhead_us sets them against the replay's Stager appends.
	frontier := r.last + 1
	mk := func(i int) stream.Stream {
		b := make(stream.Stream, r.w.Batch)
		for j := range b {
			b[j] = stream.Element{Event: uint64(j % 100), Time: frontier + int64(i)}
		}
		return b
	}
	const appends = 300
	for i := 0; i < appends; i++ {
		b := mk(i)
		tr.do("wire.append", func() { _, err = c.Append(b) })
		r.ops++
		if err != nil {
			return fail("APPEND", "%v", err)
		}
	}
	return nil
}

// summarizeMain prints per-layer self time and counts from a trace file:
//
//	perfbench summarize .bench_build/perfbench/trace-firehose-1.json
func summarizeMain(args []string) int {
	fs := flag.NewFlagSet("summarize", flag.ExitOnError)
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: perfbench summarize <trace.json>")
		return 2
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench summarize:", err)
		return 1
	}
	var doc struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench summarize:", err)
		return 1
	}
	fmt.Print(summarize(doc.Workload, doc.Seed, doc.Spans))
	return 0
}

// summarize aggregates spans by name: count, total and self time (a span's
// duration minus the part its child spans cover), and the median duration.
func summarize(workload string, seed int64, spans []span) string {
	childTime := map[int32]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			childTime[s.Parent] += s.End - s.Start
		}
	}
	type agg struct {
		count       int
		total, self int64
		durs        []float64
	}
	by := map[string]*agg{}
	for _, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
		}
		d := s.End - s.Start
		a.count++
		a.total += d
		a.self += d - childTime[s.ID]
		a.durs = append(a.durs, float64(d))
	}
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return by[names[i]].self > by[names[j]].self })
	var b bytes.Buffer
	fmt.Fprintf(&b, "trace %s seed %d: %d spans\n", workload, seed, len(spans))
	fmt.Fprintf(&b, "%-26s %8s %12s %12s %12s\n", "layer", "count", "self_ms", "total_ms", "p50_us")
	for _, n := range names {
		a := by[n]
		fmt.Fprintf(&b, "%-26s %8d %12.3f %12.3f %12.3f\n", n, a.count, float64(a.self)/1e6, float64(a.total)/1e6, median(a.durs)/1e3)
	}
	return b.String()
}
