package main

import (
	"fmt"
	"math/rand"
	"sort"

	"histburst/internal/segstore"
	"histburst/internal/stream"
	"histburst/internal/workload"
)

// Fixed parameters shared by every workload. burstd runs with exactly these
// (see daemon.args) and the in-process replays open segstore with the same.
const (
	eventSpace = 1024          // -k: olympicrio's 864 ids plus planted and quiet ids
	gamma      = 8.0           // -gamma (the store default)
	sketchD    = 5             // histburst's default Count-Min depth
	sketchW    = 272           // histburst's default Count-Min width at full fidelity
	tau        = 6 * 3600      // burst span of every query and subscription
	resGrid    = int64(3600)   // coarsest decay resolution; point instants align to it
	shapeSeed  = int64(201608) // olympicrio profile shapes; --seed drives arrivals

	plantedBase  = uint64(900) // planted bursts live alone on events plantedBase+i (history) and tailBase+i
	tailBase     = uint64(928)
	plantedSize  = 1800 // elements per planted burst
	plantedLen   = 3600 // a planted burst's elements are spread evenly over this span
	plantedTheta = plantedSize / 2
	quietBase    = uint64(960) // quiet subscription j watches event quietBase+j
	quietCount   = 8
	quietPerSpan = 40 // a quiet event's elements per τ: far below plantedTheta

	// Alert probes: short bursts repeating on their own ids, one alert
	// each, so every run times a few hundred alerts. Their ids lie outside
	// the planted ids' subtree [896, 959] of the dyadic event index, so a
	// probe cannot cancel a planted burst inside one of its nodes.
	probeBase   = uint64(992)
	probeSize   = 120 // elements per probe burst
	probeLen    = 600 // spread evenly over this span
	probeTheta  = probeSize / 2
	probePeriod = 13 * 3600 // > 2τ + probeLen, so the edge re-arms between bursts

	pointBatch = 16 // point queries per batch (wire POINT frame or HTTP batch body)
)

// decayTiers is the -decay-tiers ladder: after 7 days of event-time age a
// segment folds to half width at γ=32 on a 10-minute grid, after 14 days to
// a quarter width at γ=128 on an hourly grid.
var decayTiers = []tierSpec{
	{Age: 7 * workload.Day, Gamma: 32, Res: 600, W: 136},
	{Age: 14 * workload.Day, Gamma: 128, Res: resGrid, W: 68},
}

type tierSpec struct {
	Age   int64
	Gamma float64
	Res   int64
	W     int
}

func decayFlag(tiers []tierSpec) string {
	s := ""
	for i, t := range tiers {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("%d:%g:%d:%d", t.Age, t.Gamma, t.Res, t.W)
	}
	return s
}

// fidelityAt is the coarsest fidelity a sketch covering event time t can
// have under the decay ladder tiers once the frontier reaches `frontier`:
// a segment holding t has MaxT ≥ t, so its age is at most frontier − t.
func fidelityAt(tiers []tierSpec, t, frontier int64) (g float64, res int64, w int) {
	g, res, w = gamma, 1, sketchW
	for _, tr := range tiers {
		if frontier-t >= tr.Age {
			g, res, w = tr.Gamma, tr.Res, tr.W
		}
	}
	return g, res, w
}

// planted is one burst planted on its own event id: plantedSize elements
// evenly spaced over [Start, Start+plantedLen). Its exact burstiness rises
// monotonically to plantedSize, holds until Start+τ, falls to −plantedSize
// and climbs back to 0 at Start+2τ+plantedLen, so it crosses plantedTheta
// upward exactly once.
type planted struct {
	Event uint64
	Start int64
}

// Peak is an instant on the burst's plateau, where b = plantedSize exactly.
func (p planted) Peak() int64 { return p.Start + (plantedLen+tau)/2 }

// input is one workload's generated history plus the planted bursts and
// quiet events its checks rely on.
type input struct {
	elems   stream.Stream
	planted []planted
	quiet   []uint64
	probes  map[uint64]int // probe id → bursts
	horizon int64          // last instant the generator could emit
}

// genSpec describes one generated span of history.
type genSpec struct {
	N       int64  // olympicrio-shaped elements over the span
	Start   int64  // span start (event time)
	Span    int64  // span length
	Planted int    // planted bursts, evenly spread over the span
	IDBase  uint64 // event id of the first planted burst
	Probes  int    // alert-probe ids, each bursting every probePeriod
	// Total, when set (one past a multiple of the seal size), pads the
	// stream with uniform background elements to Total−1 elements, tops
	// the store's open head up to exactly the seal size with elements on
	// consecutive instants, and ends with one element past them: the last
	// APPEND then always freezes a full head, so every run ends on one
	// seal and the compaction and decay it sets off.
	Total    int64
	Seed     int64
	SeedSalt int64 // separates the streams of different spans under one seed
}

// generate builds an olympicrio-shaped stream (Zipf popularity, scheduled
// bursts) compressed or stretched onto [Start, Start+Span), plus planted
// bursts and quiet events. The profile shapes are fixed by shapeSeed; the
// seed drives every arrival and the planted offsets.
func generate(g genSpec) (*input, error) {
	spec := workload.OlympicRioSpec(shapeSeed, g.N)
	spec.Seed = g.Seed*7919 + g.SeedSalt
	base, err := workload.Generate(spec)
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	in := &input{horizon: g.Start + g.Span - 1}
	out := make(stream.Stream, 0, len(base)+g.Planted*plantedSize+quietCount*int(g.Span/tau+1)*quietPerSpan)
	for _, el := range base {
		out = append(out, stream.Element{Event: el.Event, Time: g.Start + el.Time*g.Span/workload.Month})
	}
	rng := rand.New(rand.NewSource(g.Seed*104729 + g.SeedSalt))
	// Planted bursts sit in equal slots of the span, each slot holding the
	// whole burst window [Start, Start+2τ+plantedLen): at any instant at
	// most one planted event has non-zero burstiness, so no planted burst
	// can cancel another inside a node of the dyadic event index (the
	// README's documented recall caveat).
	if g.Planted > 0 {
		slot := g.Span / int64(g.Planted)
		window := int64(2*tau + plantedLen)
		if slot < window {
			return nil, fmt.Errorf("generate: %d planted bursts do not fit in a span of %d", g.Planted, g.Span)
		}
		for i := 0; i < g.Planted; i++ {
			p := planted{
				Event: g.IDBase + uint64(i),
				Start: g.Start + int64(i)*slot + rng.Int63n(slot-window+1),
			}
			in.planted = append(in.planted, p)
			step := int64(plantedLen / plantedSize)
			for j := int64(0); j < plantedSize; j++ {
				out = append(out, stream.Element{Event: p.Event, Time: p.Start + j*step})
			}
		}
	}
	// Quiet events: steady Poisson arrivals, quietPerSpan per τ.
	for j := 0; j < quietCount; j++ {
		e := quietBase + uint64(j)
		in.quiet = append(in.quiet, e)
		rate := float64(quietPerSpan) / float64(tau)
		for t := float64(g.Start); ; {
			t += rng.ExpFloat64() / rate
			if int64(t) > in.horizon {
				break
			}
			out = append(out, stream.Element{Event: e, Time: int64(t)})
		}
	}
	in.probes = map[uint64]int{}
	for j := 0; j < g.Probes; j++ {
		e := probeBase + uint64(j)
		off := int64(j) * probePeriod / int64(g.Probes)
		for s := g.Start + off; s+probeLen <= in.horizon; s += probePeriod {
			in.probes[e]++
			for k := int64(0); k < probeSize; k++ {
				out = append(out, stream.Element{Event: e, Time: s + k*(probeLen/probeSize)})
			}
		}
	}
	if g.Total > 0 {
		target := g.Total
		for target-1 < int64(len(out)) { // only when --seconds shrinks the sizes
			target += segstore.DefaultSealEvents
		}
		for k := target - 1 - int64(len(out)); k > 0; k-- {
			out = append(out, stream.Element{Event: 2 + uint64(rng.Intn(862)), Time: g.Start + rng.Int63n(g.Span)})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time < out[j].Time })
	if g.Total > 0 {
		t := out[len(out)-1].Time
		for k := openHead(out); k < segstore.DefaultSealEvents; k++ {
			t++
			out = append(out, stream.Element{Event: 2 + uint64(rng.Intn(862)), Time: t})
		}
		out = append(out, stream.Element{Event: 2, Time: t + 1})
		in.horizon = max(in.horizon, t+1)
	}
	in.elems = out
	return in, nil
}

// heads cuts elems the way the store's head does when they are ingested
// into an empty head: a head freezes when an element arrives past its
// newest instant while it holds the seal size, so heads end on timestamp
// boundaries and may run over by ties. The last head is the open one.
func heads(elems stream.Stream) []stream.Stream {
	var out []stream.Stream
	start := 0
	for i := 1; i < len(elems); i++ {
		if elems[i].Time > elems[i-1].Time && i-start >= segstore.DefaultSealEvents {
			out = append(out, elems[start:i])
			start = i
		}
	}
	return append(out, elems[start:])
}

// openHead is how many elements the store's open head holds after
// ingesting elems into an empty head.
func openHead(elems stream.Stream) int64 {
	hs := heads(elems)
	return int64(len(hs[len(hs)-1]))
}

// batches cuts elems into consecutive batches of size n (the last may be
// shorter).
func batches(elems stream.Stream, n int) []stream.Stream {
	var out []stream.Stream
	for off := 0; off < len(elems); off += n {
		end := off + n
		if end > len(elems) {
			end = len(elems)
		}
		out = append(out, elems[off:end])
	}
	return out
}

// sealBatches cuts elems like batches, but also ends a batch on every
// element that freezes a head when elems are ingested into an empty head
// (the first element of each head but the first; see heads). seal[i]
// reports whether batch i ends on one.
func sealBatches(elems stream.Stream, n int) (bs []stream.Stream, seal []bool) {
	cut := 0 // elems[:cut] are batched
	head := 0
	for _, h := range heads(elems) {
		end := head + 1 // through the element that opens head h
		if head == 0 {
			end = 0
		}
		for b := cut; b < end; b += n {
			bs = append(bs, elems[b:min(b+n, end)])
			seal = append(seal, b+n >= end)
		}
		cut = max(cut, end)
		head += len(h)
	}
	for b := cut; b < len(elems); b += n {
		bs = append(bs, elems[b:min(b+n, len(elems))])
		seal = append(seal, false)
	}
	return bs, seal
}

// pointQuery is one POINT query at a resGrid-aligned instant.
type pointQuery struct {
	Event uint64
	T     int64
}

// pickEvent draws the events point, bursty-time and bursty-event queries
// name: mostly the Zipf head and the featured streams, with planted and
// quiet events mixed in so every id class is exercised.
func pickEvent(rng *rand.Rand, in *input) uint64 {
	switch r := rng.Intn(20); {
	case r < 2:
		return uint64(r) // soccer, swimming
	case r < 4 && len(in.planted) > 0:
		return in.planted[rng.Intn(len(in.planted))].Event
	case r < 5:
		return in.quiet[rng.Intn(len(in.quiet))]
	default:
		// Zipf-ish over the olympicrio tail ids 2..863.
		return 2 + uint64(rng.ExpFloat64()*60)%862
	}
}

// alignedInstant draws a resGrid-aligned instant in [lo, hi].
func alignedInstant(rng *rand.Rand, lo, hi int64) int64 {
	lo = (lo + resGrid - 1) / resGrid
	hi = hi / resGrid
	if hi < lo {
		hi = lo
	}
	return (lo + rng.Int63n(hi-lo+1)) * resGrid
}

// accuracyGrid is the fixed set of point batches behind point_mae: the
// same events and instants for every seed, so the metric moves only with
// the stream and the store. Instants step evenly (aligned to resGrid)
// over [2τ, last]; events cycle through soccer, swimming, the Zipf head,
// the planted and the quiet ids.
func accuracyGrid(in *input, last int64) [][]pointQuery {
	var events []uint64
	for e := uint64(0); e < 48; e++ {
		events = append(events, e)
	}
	for _, p := range in.planted {
		events = append(events, p.Event)
	}
	events = append(events, in.quiet...)
	out := make([][]pointQuery, accuracyBatches)
	total := accuracyBatches * pointBatch
	for i := range out {
		b := make([]pointQuery, pointBatch)
		for j := range b {
			k := i*pointBatch + j
			t := 2*tau + int64(k)*(last-2*tau)/int64(total)
			b[j] = pointQuery{Event: events[k%len(events)], T: t - t%resGrid}
		}
		out[i] = b
	}
	return out
}

// pointBatches draws n batches of pointBatch queries at aligned instants in
// [lo, hi].
func pointBatches(rng *rand.Rand, in *input, n int, lo, hi int64) [][]pointQuery {
	out := make([][]pointQuery, n)
	for i := range out {
		b := make([]pointQuery, pointBatch)
		for j := range b {
			b[j] = pointQuery{Event: pickEvent(rng, in), T: alignedInstant(rng, lo, hi)}
		}
		out[i] = b
	}
	return out
}
