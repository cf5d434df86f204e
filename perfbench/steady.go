package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// steadyMain runs the benchmark command n times per workload, each on a
// different seed, and prints every end-to-end metric's median, quartiles
// and spread ((q3 − q1) / median) — the arithmetic the bounds in
// BENCHMARK.json are checked with — followed by each run's value:
//
//	perfbench steady -n 10 -workloads firehose,lookback -- bash perfbench/run.sh
func steadyMain(args []string) int {
	fs := flag.NewFlagSet("steady", flag.ExitOnError)
	n := fs.Int("n", 10, "runs per workload")
	seed0 := fs.Int64("seed0", 1, "first seed; run i uses seed0+i")
	names := fs.String("workloads", strings.Join(workloadNames(), ","), "comma-separated workloads")
	fs.Parse(args) //nolint:errcheck // ExitOnError
	cmdline := fs.Args()
	if len(cmdline) == 0 {
		fmt.Fprintln(os.Stderr, "perfbench steady: give the benchmark command after --")
		return 2
	}
	status := 0
	for _, w := range strings.Split(*names, ",") {
		values := map[string][]float64{}
		units := map[string]string{}
		var shares []string
		for i := 0; i < *n; i++ {
			seed := *seed0 + int64(i)
			argv := append(append([]string(nil), cmdline[1:]...),
				"--workload", w, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.Itoa(registeredSeconds), "--trace", "0")
			cmd := exec.Command(cmdline[0], argv...)
			var stdout bytes.Buffer
			cmd.Stdout = &stdout
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench steady: %s seed %d: %v\n", w, seed, err)
				status = 1
				continue
			}
			var res result
			if err := json.Unmarshal(lastLine(stdout.Bytes()), &res); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench steady: %s seed %d: bad result line: %v\n", w, seed, err)
				status = 1
				continue
			}
			shares = append(shares, fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
			for k, m := range res.Metrics {
				values[k] = append(values[k], m.Value)
				units[k] = m.Unit
			}
		}
		fmt.Printf("== %s: %d runs, failed/attempted %s\n", w, len(shares), strings.Join(shares, " "))
		fmt.Printf("%-22s %14s %14s %14s %8s  %s\n", "metric", "median", "q1", "q3", "spread", "unit")
		keys := make([]string, 0, len(values))
		for k := range values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			xs := values[k]
			med := median(append([]float64(nil), xs...))
			q1, q3 := quartiles(xs)
			fmt.Printf("%-22s %14.6g %14.6g %14.6g %7.1f%%  %s\n", k, med, q1, q3, 100*(q3-q1)/med, units[k])
			fmt.Printf("    runs: %s\n", formatAll(xs))
		}
	}
	return status
}

func formatAll(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'g', 4, 64)
	}
	return strings.Join(parts, " ")
}

// lastLine returns the last non-empty line of out.
func lastLine(out []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	return last
}
