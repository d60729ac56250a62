// Command perfbench is the repository benchmark. Each run bulk-loads a
// seeded corpus, serves a fresh copy of it from a real twsimd, drives the
// daemon over HTTP from this one process, checks every answer against an
// in-process twin database, and prints the end-to-end metrics (--trace 0)
// or, after an in-process layer-by-layer replay of the same queries, the
// per-layer metrics (--trace 1). The last line of standard output is the
// result object; the line before it is a report with the run's metadata.
//
// Run it from the repository root through its wrapper, which builds twsimd
// and this command first:
//
//	bash perfbench/run.sh --workload band8-knn --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name: range-unbanded, band8-knn or serve-mixed")
		seed    = flag.Int64("seed", 1, "seed every input is derived from")
		seconds = flag.Int("seconds", 10, "length of the timed phase in seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced layer-by-layer replay and reports per-layer metrics")
		root    = flag.String("root", ".", "repository root (work files go under <root>/.bench_out)")
		bin     = flag.String("twsimd", "", "twsimd binary to serve with")
	)
	flag.Parse()
	w := findWorkload(*name)
	if w == nil || *bin == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload (range-unbanded|band8-knn|serve-mixed), --twsimd, --seconds >= 1 and --trace 0|1")
		os.Exit(2)
	}
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	r := &runner{
		w: w, seed: *seed, dur: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		root: absRoot, bin: *bin,
		work:    filepath.Join(absRoot, ".bench_out", fmt.Sprintf("%s-%d-%d", w.name, *seed, os.Getpid())),
		report:  map[string]any{},
		metrics: map[string]metric{},
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		stopAll()
		_ = os.RemoveAll(r.work)
		fmt.Fprintln(os.Stderr, "perfbench: interrupted")
		os.Exit(1)
	}()
	res, err := r.run()
	if rmErr := os.RemoveAll(r.work); rmErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: removing work dir:", rmErr)
	}
	rep, _ := json.Marshal(map[string]any{"report": r.report})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n%s\n", err, rep)
		os.Exit(1)
	}
	fmt.Println(string(rep))
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}
