package main

import (
	"math"
	"strings"
	"testing"

	"histburst/internal/segstore"
	"histburst/internal/stream"
	"histburst/internal/workload"
)

// The oracle must agree with counts made by hand on a tiny stream.
func TestOracleMatchesHandCount(t *testing.T) {
	var s stream.Stream
	for _, ts := range []int64{0, 5, tau + 1, tau + 2, 2*tau + 5, 2*tau + 6, 2*tau + 7} {
		s = append(s, stream.Element{Event: 3, Time: ts})
	}
	s = append(s, stream.Element{Event: 4, Time: 2*tau + 8})
	o := newOracle(s, decayTiers)
	// Counted by hand: b(t) = F(t) − 2F(t−τ) + F(t−2τ).
	cases := []struct{ t, want int64 }{
		{0, 1},                  // F(0)=1
		{5, 2},                  // F(5)=2
		{tau + 2, 4 - 2*1},      // F(τ+2)=4, F(2)=1
		{2*tau + 5, 5 - 8 + 2},  // F(2τ+5)=5, F(τ+5)=4, F(5)=2
		{3*tau + 7, 7 - 14 + 4}, // F=7, F(2τ+7)=7, F(τ+7)=4
	}
	for _, c := range cases {
		if got := o.burstiness(3, c.t); got != c.want {
			t.Errorf("b(3, %d) = %d, hand count %d", c.t, got, c.want)
		}
	}
	if got := o.burstiness(4, 2*tau+8); got != 1 {
		t.Errorf("b(4) = %d, want 1", got)
	}
	if got := o.burstiness(9, tau); got != 0 {
		t.Errorf("absent event b = %d, want 0", got)
	}
	if got := o.mass(4, 2*tau+6); got != 5 { // 5, τ+1, τ+2, 2τ+5, 2τ+6
		t.Errorf("mass = %d, want 5", got)
	}
}

// A generated stream's planted bursts must be where the checks look for
// them: b = plantedSize on the plateau, one upward crossing of θ, and no
// other planted event bursting at the same instant.
func TestPlantedBurstIsFound(t *testing.T) {
	in, err := generate(genSpec{N: 20_000, Span: 10 * workload.Day, Planted: 3, IDBase: plantedBase, Probes: 2, Seed: 7, SeedSalt: 1})
	if err != nil {
		t.Fatal(err)
	}
	o := newOracle(in.elems, decayTiers)
	for _, p := range in.planted {
		if b := o.burstiness(p.Event, p.Peak()); b != plantedSize {
			t.Fatalf("planted %d: b(peak) = %d, want %d", p.Event, b, plantedSize)
		}
		crossings := 0
		above := false
		for ts := p.Start - tau; ts < p.Start+3*tau; ts += 60 {
			now := o.burstiness(p.Event, ts) >= plantedTheta
			if now && !above {
				crossings++
			}
			above = now
		}
		if crossings != 1 {
			t.Errorf("planted %d crosses θ %d times, want 1", p.Event, crossings)
		}
		for _, q := range in.planted {
			if q.Event != p.Event && o.burstiness(q.Event, p.Peak()) != 0 {
				t.Errorf("planted %d bursts at planted %d's peak", q.Event, p.Event)
			}
		}
		if err := o.checkEvents(p.Peak(), plantedTheta, []uint64{p.Event}, p.Peak(), in.planted); err != nil {
			t.Errorf("answer holding the planted event rejected: %v", err)
		}
		cover := []timeRange{{p.Start + plantedLen, p.Start + tau}}
		if err := o.checkTimes(p.Event, plantedTheta, cover, p.Peak(), map[uint64]planted{p.Event: p}); err != nil {
			t.Errorf("range covering the plateau rejected: %v", err)
		}
	}
	if got := in.expectedAlerts(); got != len(in.planted)+in.probes[probeBase]+in.probes[probeBase+1] {
		t.Errorf("expected alerts %d", got)
	}
}

// Wrong answers must be reported as failures: at once, or through the
// verdict on the counted misses.
func TestWrongAnswersFail(t *testing.T) {
	in, err := generate(genSpec{N: 20_000, Span: 10 * workload.Day, Planted: 2, IDBase: plantedBase, Seed: 3, SeedSalt: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := in.planted[0]
	fresh := p.Peak() + tau // a frontier under which nothing around p has decayed
	aged := p.Peak() + 30*workload.Day
	// fails runs one check on a fresh oracle and reports whether the run
	// would fail, at once or by the verdict.
	fails := func(check func(o *oracle) error) bool {
		o := newOracle(in.elems, decayTiers)
		return check(o) != nil || o.verdict() != nil
	}
	o := newOracle(in.elems, decayTiers)
	exact := float64(o.burstiness(p.Event, p.Peak()))
	tol := o.tolerance(p.Peak(), fresh)
	if fails(func(o *oracle) error { o.checkPoint(p.Event, p.Peak(), exact+tol/2, fresh); return nil }) {
		t.Error("point answer inside the bound rejected")
	}
	for _, wrong := range []float64{exact + tol + 1, exact - tol - 1, 0} {
		if !fails(func(o *oracle) error { o.checkPoint(p.Event, p.Peak(), wrong, fresh); return nil }) {
			t.Errorf("point answer %v (exact %v, bound %v) accepted", wrong, exact, tol)
		}
	}
	// At full fidelity one miss in more than 1/ffAllowed answers passes.
	if fails(func(o *oracle) error {
		for i := 0; i < 2/ffAllowed; i++ {
			o.checkPoint(p.Event, p.Peak(), exact, fresh)
		}
		o.checkPoint(p.Event, p.Peak(), exact+tol+1, fresh)
		return nil
	}) {
		t.Error("one full-fidelity miss in 2001 answers failed the run")
	}
	on := map[uint64]planted{p.Event: p}
	if err := o.checkTimes(p.Event, plantedTheta, nil, fresh, on); err == nil || !strings.Contains(err.Error(), "misses") {
		t.Errorf("BURSTY-TIME without the planted plateau accepted: %v", err)
	}
	quietRange := []timeRange{{p.Start - 2*tau, p.Start - tau}}
	if !fails(func(o *oracle) error { return o.checkTimes(p.Event, plantedTheta, quietRange, fresh, nil) }) {
		t.Error("BURSTY-TIME range over quiet history accepted")
	}
	// On narrowed sketches a miss is counted, and too many fail the run.
	if o.collisionFree(p.Peak(), aged) {
		t.Fatal("history 30 days old should rest on narrowed sketches")
	}
	if !fails(func(o *oracle) error {
		for i := 0; i < 50; i++ {
			o.checkPoint(p.Event, p.Peak(), exact+o.tolerance(p.Peak(), aged)+1, aged)
		}
		return nil
	}) {
		t.Error("50 of 50 CM-PBE answers outside the bound accepted")
	}
	if err := o.checkEvents(p.Peak(), plantedTheta, nil, p.Peak(), in.planted); err == nil {
		t.Error("BURSTY-EVENT missing the planted event accepted")
	}
	if !fails(func(o *oracle) error {
		return o.checkEvents(p.Peak(), plantedTheta, []uint64{p.Event, in.quiet[0]}, p.Peak(), in.planted)
	}) {
		t.Error("BURSTY-EVENT reporting a quiet event accepted")
	}
	// A cumulative count more than 2γ short of the exact one is a miss at
	// full fidelity and is counted on decayed tiers; overcounting is
	// neither.
	cum := float64(o.cum(p.Event, p.Peak()))
	if !fails(func(o *oracle) error { o.checkCumulative(p.Event, p.Peak(), cum-2*gamma-1, fresh); return nil }) {
		t.Error("full-fidelity cumulative count short by more than 2γ accepted")
	}
	if fails(func(o *oracle) error { o.checkCumulative(p.Event, p.Peak(), cum+1000, fresh); return nil }) {
		t.Error("cumulative overcount rejected")
	}
	g, res, _ := fidelityAt(decayTiers, p.Peak(), aged)
	lag := cum - float64(o.cum(p.Event, p.Peak()-res))
	o.checkCumulative(p.Event, p.Peak(), cum-2*g-lag-1, aged)
	if o.cumShort != 1 || o.verdict() != nil {
		t.Errorf("decayed shortfall counted %d times (want once) or failed the run: %v", o.cumShort, o.verdict())
	}
	r := &run{hist: in, last: in.elems[len(in.elems)-1].Time}
	log := &alertLog{}
	if err := r.verifyAlerts(log, map[uint64]uint64{}); err == nil {
		t.Error("missing alerts accepted")
	}
}

// heads and openHead must predict the store's heads exactly; the seal
// waits and the end-of-stream seal depend on them.
func TestOpenHeadMatchesStore(t *testing.T) {
	in, err := generate(genSpec{N: 40_000, Span: 5 * workload.Day, IDBase: plantedBase, Seed: 1, Total: segstore.DefaultSealEvents + 1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := segstore.Open("", storeConfig(decayTiers))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// The stream's last element freezes a full head, leaving one open.
	if got := openHead(in.elems); got != 1 {
		t.Fatalf("openHead = %d, want 1", got)
	}
	// Every batch sealBatches flags ends on the element that froze the
	// head before it, so once settled the open head holds just that one.
	bs, seals := sealBatches(in.elems, 1000)
	n, sealed := 0, 0
	for i, b := range bs {
		n += len(b)
		if _, rej, err := st.AppendBatch(b); err != nil || rej != 0 {
			t.Fatalf("append: rejected %d, %v", rej, err)
		}
		if !seals[i] {
			continue
		}
		sealed++
		if err := waitSettled(storeProbe(st), decayTiers); err != nil {
			t.Fatal(err)
		}
		if got := st.Snapshot().Head().Elements; got != 1 {
			t.Errorf("open head holds %d elements after seal %d, want 1", got, sealed)
		}
	}
	if n != len(in.elems) || sealed != len(heads(in.elems))-1 {
		t.Errorf("sealBatches covers %d of %d elements with %d seals, want %d", n, len(in.elems), sealed, len(heads(in.elems))-1)
	}
	if got := st.N(); got != int64(len(in.elems)) {
		t.Errorf("store holds %d elements, appended %d", got, len(in.elems))
	}
}

// quartiles must match Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(xs)
	if math.Abs(q1-2.75) > 1e-12 || math.Abs(q3-8.25) > 1e-12 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}
