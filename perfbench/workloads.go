package main

import (
	"fmt"
	"time"

	"histburst/internal/segstore"
	"histburst/internal/workload"
)

// workloadSpec fixes one workload's make-up. Sizes are for the registered
// run length; runs with another --seconds scale the element and query
// counts linearly, so a given (workload, seed, seconds) always does the
// same work.
type workloadSpec struct {
	Name string
	// History is generated and ingested live over HBP1 (firehose,
	// dashboard) or prepared in-process through segstore before burstd
	// starts (lookback, Prepared=true).
	History  genSpec
	Prepared bool
	// Tail, when set, is ingested live after Prepared history.
	Tail *genSpec

	// Decay is the store's -decay-tiers ladder (nil: none).
	Decay []tierSpec

	Batch int     // elements per HBP1 APPEND
	Rate  float64 // open-loop APPENDs per second; 0 = closed loop

	// Wire query phase on the settled store (HBP1, one request in flight).
	PointBatches, TimesQueries, EventsQueries int
	// HTTP dashboard poller running beside live ingest.
	HTTPPoll bool
}

const (
	registeredSeconds = 10
	setupReps         = 21   // burstd starts per run; setup_s is the median of their CPU
	recoverReps       = 11   // SIGKILL + restart cycles; recover_cpu_s is the median of their CPU
	accuracyBatches   = 2400 // settled-store point batches behind point_mae
	verifyBatches     = 300  // point batches the traced run times over HBP1 and HTTP
)

func workloads(seconds int) map[string]workloadSpec {
	s := float64(seconds) / registeredSeconds
	n := func(x int) int { return max(1, int(float64(x)*s)) }
	n64 := func(x int64) int64 { return max(1, int64(float64(x)*s)) }
	return map[string]workloadSpec{
		"firehose": {
			Name: "firehose",
			History: genSpec{N: n64(3_000_000), Span: workload.Month, Planted: 24, IDBase: plantedBase, Probes: 4,
				Total: sealed(48, s), SeedSalt: 1},
			Batch:        256,
			PointBatches: n(3000), TimesQueries: n(200), EventsQueries: n(1000),
		},
		"lookback": {
			Name:     "lookback",
			History:  genSpec{N: n64(3_000_000), Span: workload.Month, Planted: 24, IDBase: plantedBase, SeedSalt: 2},
			Prepared: true,
			Decay:    decayTiers,
			Tail: &genSpec{N: n64(10_000), Start: workload.Month, Span: 5 * workload.Day, Planted: 8, IDBase: tailBase, Probes: 24,
				Total: sealed(3, s), SeedSalt: 3},
			Batch:        64,
			PointBatches: n(4000), TimesQueries: n(150), EventsQueries: n(600),
		},
		"dashboard": {
			Name: "dashboard",
			History: genSpec{N: n64(200_000), Span: workload.Month, Planted: 24, IDBase: plantedBase, Probes: 4,
				Total: sealed(5, s), SeedSalt: 4},
			Batch:    128,
			Rate:     400,
			HTTPPoll: true,
		},
	}
}

// sealed is a live stream length that ends one element past a seal
// boundary: k seal-sized heads (scaled by s, at least one) plus one.
func sealed(k int, s float64) int64 {
	return int64(max(1, int(float64(k)*s)))*segstore.DefaultSealEvents + 1
}

func workloadNames() []string { return []string{"firehose", "lookback", "dashboard"} }

func lookupWorkload(name string, seconds int) (workloadSpec, error) {
	w, ok := workloads(seconds)[name]
	if !ok {
		return w, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames())
	}
	return w, nil
}

// interval is the open-loop gap between scheduled APPENDs.
func (w workloadSpec) interval() time.Duration {
	return time.Duration(float64(time.Second) / w.Rate)
}
