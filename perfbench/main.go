// Command perfbench is burstd's fixed-work benchmark. It drives a real
// burstd child process over HBP1 and HTTP/JSON through three workloads
// (firehose, lookback, dashboard), checks every answer against an exact
// count of the generated input, and prints one JSON result line:
//
//	perfbench --workload firehose --seed 1 --seconds 10 --trace 0 -burstd <bin>
//
// --trace 1 replays the same inputs in process through the layers' public
// Go functions and reports per-layer numbers instead. Two helper modes:
//
//	perfbench steady -n 10 -workload firehose -- <command...>
//	perfbench summarize <trace.json>
//
// See README.md for the workloads, metrics and reference figures.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "steady":
			os.Exit(steadyMain(os.Args[2:]))
		case "summarize":
			os.Exit(summarizeMain(os.Args[2:]))
		}
	}
	var (
		name    = flag.String("workload", "", "firehose, lookback or dashboard")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", registeredSeconds, "run length the work is sized for")
		trace   = flag.Int("trace", 0, "1 = traced in-process replay reporting per-layer metrics")
		bin     = flag.String("burstd", "", "burstd binary")
		work    = flag.String("work", ".bench_build/perfbench", "working directory for stores and traces")
	)
	flag.Parse()
	w, err := lookupWorkload(*name, *seconds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if *bin == "" {
		fmt.Fprintln(os.Stderr, "perfbench: -burstd is required")
		os.Exit(2)
	}
	dir := filepath.Join(*work, fmt.Sprintf("%s-%d-trace%d", w.Name, *seed, *trace))
	r, err := newRun(w, *seed, *bin, dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	var out *result
	if *trace == 1 {
		out, err = runTraced(r, filepath.Join(*work, fmt.Sprintf("trace-%s-%d.json", w.Name, *seed)))
	} else {
		var res *e2eResult
		if res, err = runE2E(r); err == nil {
			out = res.report(r)
		}
	}
	if err != nil {
		var ce *checkError
		if errors.As(err, &ce) {
			fmt.Fprintf(os.Stderr, "perfbench: FAILED %s\n  %v\n", ce.Op, ce.Err)
		} else {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		}
		if log := r.log.String(); log != "" {
			fmt.Fprintf(os.Stderr, "--- burstd stderr (tail) ---\n%s\n", lastLines(log, 40))
		}
		os.Exit(1)
	}
	os.RemoveAll(dir)
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// report turns the measured phases into the end-to-end metrics: what a
// run costs burstd (CPU, memory, disk) and how accurate it is. Wall-clock
// latencies and rates are not reported: on a shared 2-core VM they swing
// between runs by more than any bound allows (README, "Left out").
func (res *e2eResult) report(r *run) *result {
	sec := func(ds []time.Duration) float64 { return median(durations(ds, time.Second)) }
	m := map[string]metric{
		"setup_s":        {sec(res.setupCPU), "s"},
		"cpu_s":          {res.cpu.Seconds(), "s"},
		"recover_cpu_s":  {sec(res.recoverCPU), "s"},
		"bytes_per_elem": {float64(res.storeBytes) / float64(res.storeElems), "B"},
		"point_mae":      {res.mae, "count"},
		"rss_peak_mb":    {float64(res.rss) / (1 << 20), "MB"},
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d operations; %s\n", r.w.Name, r.seed, r.ops, r.or.misses())
	return &result{Correct: true, Attempted: r.ops, Failed: 0, Metrics: m}
}
