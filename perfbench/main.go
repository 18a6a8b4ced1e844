// Command perfbench is profam's end-to-end benchmark. It generates one
// named workload from a seed, runs it through the public entry points
// (profam.RunParallel, and server.Server.Submit with the HTTP handler
// for the served passes), checks every output, and prints one JSON
// result line:
//
//	bash perfbench/run.sh --workload global-families --seed 7 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 makes a separate
// traced run that reports the per-layer metrics and writes its spans as
// Chrome trace JSON under --out. See README.md for the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
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

// tally counts operations (runs, submits, lookups) and their failures;
// a failed output check fails the operation it checks.
type tally struct {
	attempted, failed int64
}

func (t *tally) op(ok bool, what string) {
	t.attempted++
	t.check(ok, what)
}

// check records a failed output check against an operation already
// counted.
func (t *tally) check(ok bool, what string) {
	if !ok {
		t.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", what)
	}
}

func (t *tally) result(m map[string]metric) result {
	return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}
}

func main() {
	name := flag.String("workload", "", "workload name (see workloads.json)")
	seed := flag.Int64("seed", 0, "workload seed (0 = the workload's reference seed)")
	seconds := flag.Float64("seconds", 30, "measurement budget in seconds")
	traced := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := flag.String("out", ".bench_out", "directory for trace artifacts")
	flag.Parse()

	s, err := findSpec(*name)
	if err != nil {
		fail(err)
	}
	if *seed == 0 {
		*seed = s.ReferenceSeed
	}
	fmt.Fprintf(os.Stderr, "perfbench: workload=%s seed=%d nproc=%d GOMAXPROCS=%d go=%s\n",
		s.Name, *seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	var r result
	switch *traced {
	case 0:
		r, err = measure(s, *seed, *seconds)
	case 1:
		r, err = traceRun(s, *seed, *seconds, *out)
	default:
		err = fmt.Errorf("--trace must be 0 or 1, got %d", *traced)
	}
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(r)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}
