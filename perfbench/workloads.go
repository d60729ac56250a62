package main

import "time"

// workload is one traffic mix against one corpus, sent by one closed-loop
// client per CPU.
type workload struct {
	name                  string
	count, minLen, maxLen int
	band                  int // twsimd -band; queries use the server default
	eps                   float64
	k                     int
	knnShare              float64 // share of the timed queries that are k-NN
	flags                 []string

	// A k-NN probe follows the timed traffic of a workload whose own mix
	// has none, so every workload reports the k-NN metrics: for a quarter
	// of the run's length and at least 1000 queries, from at most probeKNN.
	probeKNN int

	// churn operations follow the timed traffic and the probe: range
	// queries drawn Zipf(zipfS) from a pool of poolSize, with a writeShare
	// of adds. They exercise the result cache's hit path and the WAL and
	// feed only per-layer metrics and the report.
	churn      int
	poolSize   int
	zipfS      float64
	writeShare float64

	replay int // queries the traced run replays in-process
}

var workloads = []*workload{
	{
		name:  "range-unbanded",
		count: 4000, minLen: 64, maxLen: 256,
		eps:      0.35,
		k:        10,
		flags:    []string{"-result-cache-mb", "16"},
		probeKNN: 10000,
		replay:   300,
	},
	{
		name:  "band8-knn",
		count: 4000, minLen: 128, maxLen: 128,
		band: 8, eps: 0.35, k: 10, knnShare: 0.5,
		flags: []string{"-band", "8", "-wal", "-result-cache-mb", "16"},
		churn: 4000, poolSize: 500, zipfS: 1.1, writeShare: 0.05,
		replay: 1000,
	},
}

const (
	// Set-ups per run, whose median is setup_s: at least minSetups, more
	// while less than setupBudgetS seconds went into them, at most maxSetups.
	minSetups, maxSetups = 5, 15
	setupBudgetS         = 3.0
	warmDur              = 1 * time.Second // warm-up traffic before timing
	// genLateLimit bounds how late (ms, p99) a client may send its next
	// request after the previous answer before a run is invalid.
	genLateLimit = 20.0
)

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
