package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"histburst"
	"histburst/internal/segstore"
	"histburst/internal/stream"
	"histburst/internal/subscribe"
	"histburst/internal/wire"
)

// checkError is a failed operation or a wrong answer: the run stops, the
// operation and burstd's stderr are printed, and no numbers are reported.
type checkError struct {
	Op  string
	Err error
}

func (e *checkError) Error() string { return e.Op + ": " + e.Err.Error() }

func fail(op string, format string, args ...any) error {
	return &checkError{Op: op, Err: fmt.Errorf(format, args...)}
}

// run is one workload's inputs, query sets and answers.
type run struct {
	w      workloadSpec
	seed   int64
	work   string
	bin    string
	log    *tailBuffer
	hist   *input
	tail   *input // nil unless the workload has a live tail
	or     *oracle
	last   int64 // newest instant of all input: the settled frontier
	ops    int64 // operations attempted
	points [][]pointQuery
	times  []uint64 // BURSTY-TIME events
	events []int64  // BURSTY-EVENT instants
}

// live returns the elements ingested over HBP1 into the running burstd.
func (r *run) live() *input {
	if r.tail != nil {
		return r.tail
	}
	return r.hist
}

func (r *run) allPlanted() []planted {
	out := append([]planted(nil), r.hist.planted...)
	if r.tail != nil {
		out = append(out, r.tail.planted...)
	}
	return out
}

func newRun(w workloadSpec, seed int64, bin, work string) (*run, error) {
	r := &run{w: w, seed: seed, bin: bin, work: work, log: &tailBuffer{}}
	h := w.History
	h.Seed = seed
	var err error
	if r.hist, err = generate(h); err != nil {
		return nil, err
	}
	r.or = newOracle(r.hist.elems, w.Decay)
	if w.Tail != nil {
		t := *w.Tail
		t.Seed = seed
		if r.tail, err = generate(t); err != nil {
			return nil, err
		}
		for _, el := range r.tail.elems {
			r.or.add(el)
		}
	}
	r.last = r.or.all[len(r.or.all)-1]
	rng := rand.New(rand.NewSource(seed*6151 + h.SeedSalt))
	r.points = pointBatches(rng, r.hist, w.PointBatches, 2*tau, r.last)
	planted := r.allPlanted()
	for i := 0; i < w.TimesQueries; i++ {
		if i%2 == 0 {
			r.times = append(r.times, planted[(i/2)%len(planted)].Event)
		} else {
			r.times = append(r.times, pickEvent(rng, r.hist))
		}
	}
	for i := 0; i < w.EventsQueries; i++ {
		if i%2 == 0 {
			r.events = append(r.events, planted[(i/2)%len(planted)].Peak())
		} else {
			r.events = append(r.events, alignedInstant(rng, 2*tau, r.last))
		}
	}
	return r, nil
}

// storeConfig is segstore's view of the burstd command line.
func storeConfig(tiers []tierSpec) segstore.Config {
	cfg := segstore.Config{K: eventSpace, Gamma: gamma, Seed: 1, ScrubInterval: -1}
	for _, t := range tiers {
		cfg.DecayTiers = append(cfg.DecayTiers, segstore.DecayTier{Age: t.Age, Gamma: t.Gamma, Res: t.Res, W: t.W})
	}
	return cfg
}

// prepare builds the lookback store in-process through segstore with
// burstd's configuration. A batch that freezes a head ends on the element
// that freezes it, so the frontier stands still while that seal and the
// compaction and decay it sets off run; the next batch waits until none of
// them has work left (see pending). The prepared composition then depends
// only on the input. The open head is sealed last and the store closed.
func prepare(dir string, elems stream.Stream, tiers []tierSpec) error {
	cfg := storeConfig(tiers)
	cfg.WALSync = segstore.WALSyncOff // durability policy does not shape the settled store
	st, err := segstore.Open(dir, cfg)
	if err != nil {
		return fmt.Errorf("prepare: open: %w", err)
	}
	bs, seals := sealBatches(elems, segstore.DefaultSealEvents)
	for i, b := range bs {
		if _, rej, err := st.AppendBatch(b); err != nil || rej != 0 {
			st.Close()
			return fmt.Errorf("prepare: append: rejected %d, %v", rej, err)
		}
		if seals[i] {
			if err := waitSettled(storeProbe(st), tiers); err != nil {
				st.Close()
				return fmt.Errorf("prepare: %w", err)
			}
		}
	}
	if err := st.Checkpoint(true); err != nil {
		st.Close()
		return fmt.Errorf("prepare: checkpoint: %w", err)
	}
	if err := waitSettled(storeProbe(st), tiers); err != nil {
		st.Close()
		return fmt.Errorf("prepare: %w", err)
	}
	return st.Close()
}

// waitSettled polls probe until the store has sealed every frozen head
// (busy false) and its compactor has no work left at the store's frontier
// (see pending).
func waitSettled(probe func() (busy bool, segs []segstore.SegmentInfo, frontier int64, err error), tiers []tierSpec) error {
	deadline := time.Now().Add(120 * time.Second)
	for {
		busy, segs, frontier, err := probe()
		if err != nil {
			return err
		}
		if !busy && !pending(segs, frontier, tiers) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("seal, compaction or decay still pending after 120s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// storeProbe is waitSettled's view of an in-process store.
func storeProbe(st *segstore.Store) func() (bool, []segstore.SegmentInfo, int64, error) {
	return func() (bool, []segstore.SegmentInfo, int64, error) {
		sn := st.Snapshot()
		return sn.Head().Frozen > 0, sn.Segments(), st.Frontier(), st.Err()
	}
}

// daemonProbe is waitSettled's view of burstd, through /v1/segments.
func daemonProbe(d *daemon) func() (bool, []segstore.SegmentInfo, int64, error) {
	client := &http.Client{Timeout: 10 * time.Second}
	return func() (bool, []segstore.SegmentInfo, int64, error) {
		resp, err := client.Get("http://" + d.httpAddr + "/v1/segments")
		if err != nil {
			return false, nil, 0, err
		}
		var out struct {
			Segments []segstore.SegmentInfo `json:"segments"`
			Head     segstore.HeadStats     `json:"head"`
		}
		if err := decode(resp, &out); err != nil {
			return false, nil, 0, err
		}
		frontier := out.Head.MaxT
		if out.Head.Elements == 0 && len(out.Segments) > 0 {
			frontier = out.Segments[len(out.Segments)-1].End
		}
		return out.Head.Frozen > 0, out.Segments, frontier, nil
	}
}

// pending reports whether the store's background compactor still has work
// on segs at this frontier: a run of DefaultCompactFanout adjacent
// segments of one size class and fidelity (segstore's pickRuns), or a
// segment old enough for a deeper decay tier than it carries
// (pickDecayRuns).
func pending(segs []segstore.SegmentInfo, frontier int64, tiers []tierSpec) bool {
	level := func(g segstore.SegmentInfo) int {
		lvl := 0
		for th := int64(segstore.DefaultSealEvents * segstore.DefaultCompactFanout); g.Elements >= th; th *= segstore.DefaultCompactFanout {
			lvl++
		}
		return lvl
	}
	same := func(a, b segstore.SegmentInfo) bool {
		return level(a) == level(b) && a.Tier == b.Tier && a.Gamma == b.Gamma && a.W == b.W && a.Res == b.Res
	}
	for lo := 0; lo+segstore.DefaultCompactFanout <= len(segs); lo++ {
		run := true
		for i := 1; i < segstore.DefaultCompactFanout && run; i++ {
			run = same(segs[lo], segs[lo+i])
		}
		if run {
			return true
		}
	}
	for _, g := range segs {
		target := 0
		for i, t := range tiers {
			if frontier-g.End >= t.Age {
				target = i + 1
			}
		}
		if target > g.Tier {
			return true
		}
	}
	return false
}

// alertLog records every ALERT frame.
type alertLog struct {
	mu     sync.Mutex
	alerts []subscribe.Alert
}

func (l *alertLog) collect(q *subscribe.Queue) {
	for {
		a, ok := q.Pop(nil)
		if !ok {
			return
		}
		l.mu.Lock()
		l.alerts = append(l.alerts, a)
		l.mu.Unlock()
	}
}

// e2eResult is what the phases measured.
type e2eResult struct {
	setupCPU   []time.Duration // burstd's CPU from exec to ready, per start
	recoverCPU []time.Duration // restarted burstd's CPU up to ready
	cpu        time.Duration   // serving burstd's CPU through the query phase
	storeBytes int64
	storeElems int64
	rss        int64
	mae        float64
}

// runE2E drives one workload against a real burstd: setup, ingest, settle,
// queries, verification and SIGKILL recovery.
func runE2E(r *run) (*e2eResult, error) {
	res := &e2eResult{}
	if err := os.RemoveAll(r.work); err != nil {
		return nil, err
	}
	storeDir := filepath.Join(r.work, "store")
	if r.w.Prepared {
		if err := prepare(storeDir, r.hist.elems, r.w.Decay); err != nil {
			return nil, err
		}
	}

	// The benchmark's own garbage collector stays out of the measured phases:
	// collect once now, then only past a generous heap limit.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(2 << 30))

	// 1. Setup: start burstd setupReps times, keep the last one.
	var d *daemon
	for i := 0; i < setupReps; i++ {
		dir := storeDir
		if !r.w.Prepared {
			dir = filepath.Join(r.work, fmt.Sprintf("store-%d", i))
		}
		var err error
		if d, err = newDaemon(r.bin, dir, decayFlag(r.w.Decay), r.log); err != nil {
			return nil, err
		}
		err = d.start()
		r.ops++
		if err != nil {
			return nil, fail("start burstd", "%v", err)
		}
		cpu, err := d.cpuTime()
		if err != nil {
			return nil, err
		}
		res.setupCPU = append(res.setupCPU, cpu)
		if i < setupReps-1 {
			d.kill()
		}
	}
	defer func() { d.kill() }()
	if !r.w.Prepared {
		storeDir = d.dir
	}

	c, err := wire.Dial(d.wireAddr, 5*time.Second)
	if err != nil {
		return nil, fail("dial HBP1", "%v", err)
	}
	var alerts alertLog
	var alertWG sync.WaitGroup
	alertWG.Add(1)
	go func() { defer alertWG.Done(); alerts.collect(c.Alerts()) }()
	defer alertWG.Wait()
	defer c.Close() // ends the collector's Pop before the Wait above

	live := r.live()
	subEvent := map[uint64]uint64{}
	for _, sub := range subscriptions(live) {
		id, err := c.Subscribe(sub)
		r.ops++
		if err != nil {
			return nil, fail(fmt.Sprintf("SUBSCRIBE(e=%d)", sub.Events[0]), "%v", err)
		}
		subEvent[id] = sub.Events[0]
	}

	// 2. Ingest, with the HTTP poller beside it on the dashboard. Under a
	// decay ladder, each batch that freezes a head waits until that seal
	// and the compaction and decay it sets off are done: decay picks its
	// runs against the moving frontier, so without the wait the settled
	// store would depend on timing.
	bs, seals := sealBatches(live.elems, r.w.Batch)
	var frontier atomic.Int64 // newest acked instant
	frontier.Store(-1)
	if r.w.Prepared {
		frontier.Store(r.hist.elems[len(r.hist.elems)-1].Time)
	}
	var poll *poller
	var pollWG sync.WaitGroup
	stopPoll := make(chan struct{})
	if r.w.HTTPPoll {
		poll = &poller{r: r, base: "http://" + d.httpAddr, frontier: &frontier, rng: rand.New(rand.NewSource(r.seed*977 + 5))}
		pollWG.Add(1)
		go func() { defer pollWG.Done(); poll.loop(stopPoll) }()
	}
	stopPoller := func() {
		if poll != nil {
			close(stopPoll)
			pollWG.Wait()
			r.ops += poll.ops
		}
	}
	start := time.Now()
	for i, b := range bs {
		if r.w.Rate > 0 {
			time.Sleep(time.Until(start.Add(time.Duration(i) * r.w.interval())))
		}
		ack, err := c.Append(b)
		r.ops++
		if err != nil {
			stopPoller()
			return nil, fail(fmt.Sprintf("APPEND batch %d (%d elements, t=%d..%d)", i, len(b), b[0].Time, b[len(b)-1].Time), "%v", err)
		}
		if ack.Appended != int64(len(b)) || ack.Rejected != 0 {
			stopPoller()
			return nil, fail(fmt.Sprintf("APPEND batch %d", i), "acked %d of %d elements, rejected %d", ack.Appended, len(b), ack.Rejected)
		}
		frontier.Store(b[len(b)-1].Time)
		if seals[i] && len(r.w.Decay) > 0 {
			if err := waitSettled(daemonProbe(d), r.w.Decay); err != nil {
				stopPoller()
				return nil, fail(fmt.Sprintf("settle after APPEND batch %d (GET /v1/segments)", i), "%v", err)
			}
		}
	}
	stopPoller()
	if poll != nil && poll.err != nil {
		return nil, poll.err
	}

	// 3. Settle. The live stream ends on an element that freezes a full
	// head (see genSpec.Total), so every run ends on one seal; wait until it
	// and the compaction and decay it sets off are done.
	if err := waitSettled(daemonProbe(d), r.w.Decay); err != nil {
		return nil, fail("settle (GET /v1/segments)", "%v", err)
	}

	// 4. Queries over HBP1 on the settled store, the three kinds
	// interleaved in proportion so each samples the same stretch of time.
	pointAns := make([][]wire.PointResult, len(r.points))
	timesAns := make([][]timeRange, len(r.times))
	eventsAns := make([][]uint64, len(r.events))
	for _, op := range interleave(len(r.points), len(r.times), len(r.events)) {
		var err error
		switch i := op.i; op.kind {
		case 0:
			wq := make([]wire.PointQuery, len(r.points[i]))
			for j, q := range r.points[i] {
				wq[j] = wire.PointQuery{Event: q.Event, T: q.T, Tau: tau}
			}
			pointAns[i], err = c.Point(wq)
		case 1:
			var ranges []histburst.TimeRange
			ranges, _, err = c.Times(r.times[i], plantedTheta, tau)
			for _, rg := range ranges {
				timesAns[i] = append(timesAns[i], timeRange{rg.Start, rg.End})
			}
		case 2:
			var hits []wire.EventHit
			hits, _, err = c.Events(r.events[i], plantedTheta, tau)
			eventsAns[i] = hitIDs(hits)
		}
		r.ops++
		if err != nil {
			return nil, fail(fmt.Sprintf("%s #%d", [...]string{"POINT batch", "BURSTY-TIME", "BURSTY-EVENT"}[op.kind], op.i), "%v", err)
		}
	}

	// 5. Verify against the oracle on the settled store.
	st, err := c.Stats()
	r.ops++
	if err != nil {
		return nil, fail("STATS", "%v", err)
	}
	want := r.or.n
	if st.Elements != want {
		return nil, fail("STATS", "store holds %d elements, %d were acked", st.Elements, want)
	}
	res.storeElems = st.Elements
	if res.storeBytes, err = dirBytes(storeDir); err != nil {
		return nil, err
	}
	if res.rss, err = d.peakRSS(); err != nil {
		return nil, err
	}
	if res.cpu, err = d.cpuTime(); err != nil {
		return nil, err
	}
	if err := r.verifyAnswers(pointAns, timesAns, eventsAns); err != nil {
		return nil, err
	}
	if res.mae, err = r.verifyPlanted(c); err != nil {
		return nil, err
	}
	if poll != nil {
		if err := poll.verify(); err != nil {
			return nil, err
		}
	}
	if err := r.verifyAlerts(&alerts, subEvent); err != nil {
		return nil, err
	}
	if err := r.or.verdict(); err != nil {
		return nil, fail("answers outside their bound", "%v", err)
	}
	c.Close()

	// 6. SIGKILL and restart on the same directory: every acked element
	// must be back.
	for i := 0; i < recoverReps; i++ {
		d.kill()
		err := d.start()
		r.ops++
		if err != nil {
			return nil, fail("restart after SIGKILL", "%v", err)
		}
		cpu, err := d.cpuTime()
		if err != nil {
			return nil, err
		}
		res.recoverCPU = append(res.recoverCPU, cpu)
		rc, err := wire.Dial(d.wireAddr, 5*time.Second)
		if err != nil {
			return nil, fail("dial HBP1 after restart", "%v", err)
		}
		st, err := rc.Stats()
		rc.Close()
		r.ops++
		if err != nil {
			return nil, fail("STATS after restart", "%v", err)
		}
		if st.Elements != want {
			return nil, fail("STATS after restart", "recovered %d elements, %d were acked", st.Elements, want)
		}
	}
	return res, nil
}

// subscriptions are the standing queries armed on the live input: one per
// planted burst and per quiet event at plantedTheta, and one per probe id
// at probeTheta, all over τ. τ spans many commit batches on every
// workload, so each burst is seen above θ at some commit instant.
func subscriptions(in *input) []subscribe.Subscription {
	var out []subscribe.Subscription
	for _, p := range in.planted {
		out = append(out, subscribe.Subscription{Events: []uint64{p.Event}, Theta: plantedTheta, Tau: tau})
	}
	for _, e := range in.quiet {
		out = append(out, subscribe.Subscription{Events: []uint64{e}, Theta: plantedTheta, Tau: tau})
	}
	for j := 0; j < len(in.probes); j++ {
		out = append(out, subscribe.Subscription{Events: []uint64{probeBase + uint64(j)}, Theta: probeTheta, Tau: tau})
	}
	return out
}

// expectedAlerts is one per planted burst and per probe burst.
func (in *input) expectedAlerts() int {
	n := len(in.planted)
	for _, k := range in.probes {
		n += k
	}
	return n
}

func hitIDs(hits []wire.EventHit) []uint64 {
	ids := make([]uint64, len(hits))
	for i, h := range hits {
		ids[i] = h.Event
	}
	return ids
}

func (r *run) plantedOn() map[uint64]planted {
	m := map[uint64]planted{}
	for _, p := range r.allPlanted() {
		m[p.Event] = p
	}
	return m
}

// verifyAnswers checks the query phase's answers.
func (r *run) verifyAnswers(points [][]wire.PointResult, times [][]timeRange, events [][]uint64) error {
	for i, ans := range points {
		if len(ans) != len(r.points[i]) {
			return fail(fmt.Sprintf("POINT batch %d", i), "%d answers for %d queries", len(ans), len(r.points[i]))
		}
		for j, q := range r.points[i] {
			r.or.checkPoint(q.Event, q.T, ans[j].Burstiness, r.last)
		}
	}
	on := r.plantedOn()
	for i, e := range r.times {
		if err := r.or.checkTimes(e, plantedTheta, times[i], r.last, on); err != nil {
			return fail("BURSTY-TIME", "%v", err)
		}
	}
	ps := r.allPlanted()
	for i, t := range r.events {
		if err := r.or.checkEvents(t, plantedTheta, events[i], r.last, ps); err != nil {
			return fail("BURSTY-EVENT", "%v", err)
		}
	}
	return nil
}

// verifyPlanted asks for every planted burst by BURSTY-TIME and
// BURSTY-EVENT, and runs the point batches behind point_mae, on the
// settled store. It returns the mean absolute point error.
func (r *run) verifyPlanted(c *wire.Client) (float64, error) {
	on := r.plantedOn()
	for _, p := range r.allPlanted() {
		ranges, _, err := c.Times(p.Event, plantedTheta, tau)
		r.ops++
		if err != nil {
			return 0, fail(fmt.Sprintf("BURSTY-TIME(e=%d)", p.Event), "%v", err)
		}
		var tr []timeRange
		for _, rg := range ranges {
			tr = append(tr, timeRange{rg.Start, rg.End})
		}
		if err := r.or.checkTimes(p.Event, plantedTheta, tr, r.last, on); err != nil {
			return 0, fail("BURSTY-TIME (planted)", "%v", err)
		}
		hits, _, err := c.Events(p.Peak(), plantedTheta, tau)
		r.ops++
		if err != nil {
			return 0, fail(fmt.Sprintf("BURSTY-EVENT(t=%d)", p.Peak()), "%v", err)
		}
		if err := r.or.checkEvents(p.Peak(), plantedTheta, hitIDs(hits), r.last, []planted{p}); err != nil {
			return 0, fail("BURSTY-EVENT (planted)", "%v", err)
		}
	}
	var sum float64
	var n int
	for i, qs := range accuracyGrid(r.hist, r.last) {
		wq := make([]wire.PointQuery, len(qs))
		for j, q := range qs {
			wq[j] = wire.PointQuery{Event: q.Event, T: q.T, Tau: tau}
		}
		ans, err := c.Point(wq)
		r.ops++
		if err != nil {
			return 0, fail(fmt.Sprintf("POINT (accuracy batch %d)", i), "%v", err)
		}
		for j, q := range qs {
			r.or.checkPoint(q.Event, q.T, ans[j].Burstiness, r.last)
			sum += math.Abs(ans[j].Burstiness - float64(r.or.burstiness(q.Event, q.T)))
			n++
		}
	}
	return sum / float64(n), nil
}

// verifyAlerts checks one alert per planted and per probe burst and
// silence on the quiet subscriptions.
func (r *run) verifyAlerts(l *alertLog, subEvent map[uint64]uint64) error {
	live := r.live()
	deadline := time.Now().Add(5 * time.Second)
	for {
		l.mu.Lock()
		n := len(l.alerts)
		l.mu.Unlock()
		if n >= live.expectedAlerts() || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	fired := map[uint64]int{}
	for _, a := range l.alerts {
		e, ok := subEvent[a.Sub]
		if !ok {
			return fail("ALERT", "alert for unknown subscription %d", a.Sub)
		}
		if a.Time > r.last {
			return fail("ALERT", "alert at t=%d is past the last appended instant", a.Time)
		}
		fired[e]++
	}
	for _, p := range live.planted {
		if fired[p.Event] != 1 {
			return fail(fmt.Sprintf("ALERT(e=%d)", p.Event), "planted burst fired %d alerts, want exactly 1", fired[p.Event])
		}
	}
	for e, k := range live.probes {
		if fired[e] != k {
			return fail(fmt.Sprintf("ALERT(e=%d)", e), "%d probe bursts fired %d alerts", k, fired[e])
		}
	}
	for _, e := range live.quiet {
		if fired[e] != 0 {
			return fail(fmt.Sprintf("ALERT(e=%d)", e), "quiet event (exact burstiness far below θ) fired %d alerts", fired[e])
		}
	}
	return nil
}

// poller is the dashboard's closed-loop HTTP/JSON client: it polls the
// fresh end of history through /v1/query/batch, /v1/events and /v1/times
// over one keep-alive connection while ingest runs, pausing pollThink
// between requests.
type poller struct {
	r        *run
	base     string
	frontier *atomic.Int64
	rng      *rand.Rand
	client   *http.Client

	checks []func() error // deferred answer checks
	ops    int64
	err    error
}

func (p *poller) loop(stop <-chan struct{}) {
	p.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}, Timeout: 10 * time.Second}
	defer p.client.CloseIdleConnections()
	for i := 0; ; i++ {
		select {
		case <-stop:
			return
		default:
		}
		f := p.frontier.Load()
		if f < 2*tau {
			time.Sleep(time.Millisecond)
			continue
		}
		var err error
		switch i % 4 {
		case 0, 2:
			err = p.pointBatch(f)
		case 1:
			err = p.eventsAt(f - 1)
		case 3:
			err = p.timesFor(pickEvent(p.rng, p.r.hist), f)
		}
		p.ops++
		if err != nil {
			p.err = err
			return
		}
		time.Sleep(pollThink)
	}
}

// pollThink is the dashboard client's pause between requests: a closed
// loop of one user refreshing panels, not a saturating load generator.
const pollThink = 2 * time.Millisecond

func (p *poller) get(path string, q url.Values, out any) error {
	resp, err := p.client.Get(p.base + path + "?" + q.Encode())
	if err != nil {
		return err
	}
	return decode(resp, out)
}

func decode(resp *http.Response, out any) error {
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, out)
}

// pointBatch asks for pointBatch points in the last day below the acked
// frontier f: every element at or before those instants is acked, so the
// exact answer is fixed.
func (p *poller) pointBatch(f int64) error {
	type q struct {
		Event uint64 `json:"event"`
		T     int64  `json:"t"`
		Tau   int64  `json:"tau"`
	}
	qs := make([]q, pointBatch)
	for j := range qs {
		qs[j] = q{Event: pickEvent(p.rng, p.r.hist), T: f - 1 - p.rng.Int63n(tau), Tau: tau}
	}
	body, _ := json.Marshal(map[string]any{"queries": qs})
	resp, err := p.client.Post(p.base+"/v1/query/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		return fail("POST /v1/query/batch", "%v", err)
	}
	var out struct {
		Results []struct {
			Burstiness float64 `json:"burstiness"`
		} `json:"results"`
	}
	if err := decode(resp, &out); err != nil {
		return fail("POST /v1/query/batch", "%v", err)
	}
	if len(out.Results) != len(qs) {
		return fail("POST /v1/query/batch", "%d results for %d queries", len(out.Results), len(qs))
	}
	p.checks = append(p.checks, func() error {
		for j, x := range qs {
			p.r.or.checkPoint(x.Event, x.T, out.Results[j].Burstiness, p.r.last)
		}
		return nil
	})
	return nil
}

func (p *poller) eventsAt(t int64) error {
	var out struct {
		Events []struct {
			Event uint64 `json:"event"`
		} `json:"events"`
	}
	if err := p.get("/v1/events", url.Values{"t": {strconv.FormatInt(t, 10)}, "theta": {strconv.Itoa(plantedTheta)}, "tau": {strconv.FormatInt(tau, 10)}}, &out); err != nil {
		return fail("GET /v1/events", "%v", err)
	}
	ids := make([]uint64, len(out.Events))
	for i, e := range out.Events {
		ids[i] = e.Event
	}
	p.checks = append(p.checks, func() error {
		if err := p.r.or.checkEvents(t, plantedTheta, ids, p.r.last, nil); err != nil {
			return fail("GET /v1/events", "%v", err)
		}
		return nil
	})
	return nil
}

// timesFor scans event e's history; only instants below the acked
// frontier f are checked, since later ones may still be arriving.
func (p *poller) timesFor(e uint64, f int64) error {
	var out struct {
		Ranges []struct{ Start, End int64 } `json:"ranges"`
	}
	if err := p.get("/v1/times", url.Values{"e": {strconv.FormatUint(e, 10)}, "theta": {strconv.Itoa(plantedTheta)}, "tau": {strconv.FormatInt(tau, 10)}}, &out); err != nil {
		return fail("GET /v1/times", "%v", err)
	}
	var rs []timeRange
	for _, rg := range out.Ranges {
		if rg.Start < f {
			rs = append(rs, timeRange{rg.Start, min(rg.End, f)})
		}
	}
	p.checks = append(p.checks, func() error {
		if err := p.r.or.checkTimes(e, plantedTheta, rs, p.r.last, nil); err != nil {
			return fail("GET /v1/times", "%v", err)
		}
		return nil
	})
	return nil
}

func (p *poller) verify() error {
	for _, c := range p.checks {
		if err := c(); err != nil {
			return err
		}
	}
	return nil
}

// queryOp is one query of the interleaved query phase: kind 0 = point
// batch, 1 = BURSTY-TIME, 2 = BURSTY-EVENT; i indexes that kind's list.
type queryOp struct{ kind, i int }

// interleave spreads n[k] queries of each kind k evenly over one sequence.
func interleave(n ...int) []queryOp {
	total := 0
	for _, k := range n {
		total += k
	}
	out := make([]queryOp, 0, total)
	next := make([]int, len(n))
	for len(out) < total {
		// Take the kind furthest behind its share of the sequence so far.
		best, lag := -1, 0.0
		for k := range n {
			if next[k] == n[k] {
				continue
			}
			l := float64(len(out)+1)*float64(n[k])/float64(total) - float64(next[k])
			if best < 0 || l > lag {
				best, lag = k, l
			}
		}
		out = append(out, queryOp{best, next[best]})
		next[best]++
	}
	return out
}
