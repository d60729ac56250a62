// Command benchcascade measures what the tiered lower-bound cascade and the
// allocation-free DTW kernels buy on the refine hot path, writing the
// results as JSON.
//
// Usage:
//
//	go run ./cmd/benchcascade                   # full run, writes BENCH_cascade.json
//	go run ./cmd/benchcascade -smoke            # small CI smoke run (no file, no kernel timings)
//	go run ./cmd/benchcascade -seqs 8000 -len 256 -queries 128
//
// Two workloads run with the cascade off (the pre-cascade refine loop) and
// on, over the same data and queries (fixed seeds, same generator and
// default sizes as cmd/benchshards so the numbers stay comparable):
//
//   - equal_len: the benchshards workload (random walks of one length). The
//     point-feature tiers rarely fire here — walks of equal length share
//     first/last/extrema ranges — so the reduction comes from the
//     reachability corridor.
//   - vary_len: random walks of mixed lengths, where the feature tiers
//     (LB_Kim, the full-envelope LB_Keogh, LB_Yi) prune before any DP runs.
//
// Reported per configuration: queries/sec, per-query p50/p99 latency,
// exact-DTW call count, and the per-tier prune counts. The harness fails if
// the two configurations disagree on any match (the cascade must be
// invisible in results). A kernel section times the devirtualized pooled
// kernels against a local copy of the seed's allocate-per-call DP, and an
// allocation section reports testing.AllocsPerRun for the steady-state
// kernels (expected 0).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	twsim "repro"
	"repro/internal/dtw"
	"repro/internal/hostinfo"
	"repro/internal/seq"
	"repro/internal/synth"
)

type config struct {
	Cascade          bool    `json:"cascade"`
	Procs            int     `json:"gomaxprocs"`
	NumCPU           int     `json:"num_cpu"`
	CPUModel         string  `json:"cpu_model"`
	QPS              float64 `json:"queries_per_sec"`
	WallMS           float64 `json:"wall_ms"`
	P50MS            float64 `json:"p50_ms"`
	P99MS            float64 `json:"p99_ms"`
	Candidates       int     `json:"candidates"`
	DTWCalls         int     `json:"dtw_calls"`
	DTWAbandoned     int     `json:"dtw_abandoned"`
	LBKimPruned      int     `json:"lb_kim_pruned"`
	LBPAAPruned      int     `json:"lb_paa_pruned"`
	LBKeoghPruned    int     `json:"lb_keogh_pruned"`
	LBYiPruned       int     `json:"lb_yi_pruned"`
	LBImprovedPruned int     `json:"lb_improved_pruned"`
	CorridorPruned   int     `json:"corridor_pruned"`
	Matches          int     `json:"matches"`
	DTWReductionPct  float64 `json:"dtw_call_reduction_pct"`
}

type workload struct {
	Name    string   `json:"name"`
	Seqs    int      `json:"sequences"`
	MinLen  int      `json:"min_len"`
	MaxLen  int      `json:"max_len"`
	Queries int      `json:"queries"`
	Epsilon float64  `json:"epsilon"`
	Band    int      `json:"band"`
	Configs []config `json:"configs"`
}

type kernel struct {
	Op       string  `json:"op"`
	Base     string  `json:"base"`
	NsOpSeed float64 `json:"ns_op_seed"`
	NsOpNew  float64 `json:"ns_op_kernel"`
	Speedup  float64 `json:"speedup"`
}

type report struct {
	GOMAXPROCS int                `json:"gomaxprocs"`
	NumCPU     int                `json:"num_cpu"`
	Smoke      bool               `json:"smoke"`
	Workloads  []workload         `json:"workloads"`
	Kernels    []kernel           `json:"kernels,omitempty"`
	AllocsPer  map[string]float64 `json:"allocs_per_op"`
}

func main() {
	var (
		out     = flag.String("out", "BENCH_cascade.json", "result file (empty = stdout only)")
		smoke   = flag.Bool("smoke", false, "small fast run for CI; implies -out \"\" and skips kernel timings")
		seqs    = flag.Int("seqs", 4000, "number of random-walk sequences")
		seqLen  = flag.Int("len", 128, "sequence length")
		queries = flag.Int("queries", 64, "queries per batch")
		eps     = flag.Float64("eps", 0.35, "search tolerance (paper's epsilon)")
		band    = flag.Int("band", 8, "Sakoe-Chiba band half-width for the banded workload")
	)
	flag.Parse()
	if *smoke {
		*out = ""
		*seqs, *seqLen, *queries = 300, 64, 8
	}

	rep := report{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Smoke:      *smoke,
		AllocsPer:  map[string]float64{},
	}

	// Workload 1: the benchshards workload (same seed, generator, sizes).
	rng := rand.New(rand.NewSource(42))
	equal := synth.RandomWalkSet(rng, *seqs, *seqLen)
	equalQ := synth.Queries(rng, equal, *queries)
	rep.Workloads = append(rep.Workloads,
		runWorkload("equal_len", equal, equalQ, *seqLen, *seqLen, *eps, 0, *smoke))

	// Workload 2: mixed lengths, where the point-feature tiers prune.
	vrng := rand.New(rand.NewSource(43))
	minLen, maxLen := *seqLen/4, *seqLen
	vary := synth.RandomWalkSetVaryLen(vrng, *seqs, minLen, maxLen)
	varyQ := synth.Queries(vrng, vary, *queries)
	rep.Workloads = append(rep.Workloads,
		runWorkload("vary_len", vary, varyQ, minLen, maxLen, *eps, 0, *smoke))

	// Workload 3: equal lengths under a Sakoe–Chiba band, where the banded
	// envelope tiers (LB_PAA before the fetch, banded LB_Keogh and
	// LB_Improved after) carry the pruning the corridor cannot (the banded
	// exact DP replaces it).
	bw := runWorkload("equal_len_band", equal, equalQ, *seqLen, *seqLen, *eps, *band, *smoke)
	rep.Workloads = append(rep.Workloads, bw)
	for _, c := range bw.Configs {
		if !c.Cascade {
			continue
		}
		if feat := c.LBPAAPruned + c.LBKeoghPruned + c.LBImprovedPruned; feat == 0 && c.Candidates > 0 {
			log.Fatalf("benchcascade: banded workload pruned nothing with the envelope tiers (candidates=%d)", c.Candidates)
		}
	}

	if !*smoke {
		rep.Kernels = runKernels(*seqLen)
	}
	rep.AllocsPer["distance"] = measureAllocs(*seqLen, false)
	rep.AllocsPer["distance_within"] = measureAllocs(*seqLen, true)

	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(blob))
	if *out != "" {
		if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
			log.Fatalf("benchcascade: writing %s: %v", *out, err)
		}
		log.Printf("wrote %s", *out)
	}
}

// procsList returns the GOMAXPROCS settings every configuration runs at:
// the serial baseline and the machine's full width (deduplicated on
// single-core machines). Recording both rows keeps the numbers honest —
// cascade wins that only show up with parallelism (or only without) are
// visible instead of averaged away.
func procsList() []int {
	n := runtime.NumCPU()
	if n <= 1 {
		return []int{1}
	}
	return []int{1, n}
}

func runWorkload(name string, data []seq.Sequence, qs []seq.Sequence, minLen, maxLen int, eps float64, band int, smoke bool) workload {
	values := make([][]float64, len(data))
	for i, s := range data {
		values[i] = s
	}
	queryVals := make([][]float64, len(qs))
	for i, q := range qs {
		queryVals[i] = q
	}
	w := workload{
		Name: name, Seqs: len(data), MinLen: minLen, MaxLen: maxLen,
		Queries: len(qs), Epsilon: eps, Band: band,
	}
	var baseline []*twsim.Result
	for _, procs := range procsList() {
		baseIdx := len(w.Configs) // this procs-group's cascade=false row
		for _, cascade := range []bool{false, true} {
			c, results, err := runConfig(cascade, procs, band, values, queryVals, eps)
			if err != nil {
				log.Fatalf("benchcascade: %s cascade=%v procs=%d: %v", name, cascade, procs, err)
			}
			if baseline == nil {
				baseline = results
			} else {
				// Every configuration — cascade on or off, serial or wide —
				// must return bit-identical matches.
				checkIdentical(name, baseline, results)
			}
			if cascade {
				if base := w.Configs[baseIdx].DTWCalls; base > 0 {
					c.DTWReductionPct = 100 * float64(base-c.DTWCalls) / float64(base)
				}
			}
			w.Configs = append(w.Configs, c)
			log.Printf("%s cascade=%v procs=%d: %.1f queries/sec (p50 %.2f ms, p99 %.2f ms), %d/%d DTW calls, pruned kim=%d paa=%d keogh=%d yi=%d improved=%d corridor=%d",
				name, cascade, procs, c.QPS, c.P50MS, c.P99MS, c.DTWCalls, c.Candidates,
				c.LBKimPruned, c.LBPAAPruned, c.LBKeoghPruned, c.LBYiPruned, c.LBImprovedPruned, c.CorridorPruned)
		}
	}
	if band > 0 && smoke {
		checkBandedOracle(name, values, queryVals, eps, band, baseline)
	}
	return w
}

func runConfig(cascade bool, procs, band int, data, queries [][]float64, eps float64) (config, []*twsim.Result, error) {
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	db, err := twsim.OpenMem(twsim.Options{DisableCascade: !cascade})
	if err != nil {
		return config{}, nil, err
	}
	defer db.Close()
	if _, err := db.AddBatch(data); err != nil {
		return config{}, nil, err
	}

	// Warm the buffer pools (and the kernel row pools) with one untimed pass.
	if _, err := db.SearchBatchCtx(context.Background(), queries, eps, band, 0); err != nil {
		return config{}, nil, err
	}

	start := time.Now()
	results, err := db.SearchBatchCtx(context.Background(), queries, eps, band, 0)
	wall := time.Since(start)
	if err != nil {
		return config{}, nil, err
	}

	lat := make([]time.Duration, len(results))
	c := config{Cascade: cascade, Procs: procs, NumCPU: hostinfo.NumCPU(), CPUModel: hostinfo.CPUModel()}
	for i, r := range results {
		lat[i] = r.Stats.Wall
		c.Candidates += r.Stats.Candidates
		c.DTWCalls += r.Stats.DTWCalls
		c.DTWAbandoned += r.Stats.DTWAbandoned
		c.LBKimPruned += r.Stats.LBKimPruned
		c.LBPAAPruned += r.Stats.LBPAAPruned
		c.LBKeoghPruned += r.Stats.LBKeoghPruned
		c.LBYiPruned += r.Stats.LBYiPruned
		c.LBImprovedPruned += r.Stats.LBImprovedPruned
		c.CorridorPruned += r.Stats.CorridorPruned
		c.Matches += len(r.Matches)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	c.WallMS = float64(wall.Microseconds()) / 1e3
	c.QPS = float64(len(queries)) / wall.Seconds()
	c.P50MS = float64(lat[len(lat)/2].Microseconds()) / 1e3
	c.P99MS = float64(lat[len(lat)*99/100].Microseconds()) / 1e3
	return c, results, nil
}

// checkBandedOracle compares the banded index search against a brute-force
// banded scan — the no-false-dismissal oracle for the banded query mode
// (smoke runs only; it is O(seqs × queries) exact DPs).
func checkBandedOracle(name string, data, queries [][]float64, eps float64, band int, got []*twsim.Result) {
	for qi, q := range queries {
		var want []twsim.Match
		for id, s := range data {
			if d := dtw.BandDistance(s, q, seq.LInf, band); d <= eps {
				want = append(want, twsim.Match{ID: twsim.ID(id), Dist: d})
			}
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].Dist != want[j].Dist {
				return want[i].Dist < want[j].Dist
			}
			return want[i].ID < want[j].ID
		})
		if len(want) != len(got[qi].Matches) {
			log.Fatalf("benchcascade: %s query %d: banded search returned %d matches, brute-force scan %d",
				name, qi, len(got[qi].Matches), len(want))
		}
		for i := range want {
			if want[i] != got[qi].Matches[i] {
				log.Fatalf("benchcascade: %s query %d match %d: banded search %+v, brute-force scan %+v",
					name, qi, i, got[qi].Matches[i], want[i])
			}
		}
	}
}

// checkIdentical fails the run if the cascade changed any result — it is an
// optimization, not a semantics change.
func checkIdentical(name string, want, got []*twsim.Result) {
	if len(want) != len(got) {
		log.Fatalf("benchcascade: %s: result count diverged", name)
	}
	for qi := range want {
		if len(want[qi].Matches) != len(got[qi].Matches) {
			log.Fatalf("benchcascade: %s query %d: cascade returned %d matches, baseline %d",
				name, qi, len(got[qi].Matches), len(want[qi].Matches))
		}
		for i := range want[qi].Matches {
			if want[qi].Matches[i] != got[qi].Matches[i] {
				log.Fatalf("benchcascade: %s query %d match %d: cascade %+v, baseline %+v",
					name, qi, i, got[qi].Matches[i], want[qi].Matches[i])
			}
		}
	}
}

// runKernels times the devirtualized pooled kernels against seedDistance /
// seedDistanceWithin, local copies of the pre-kernel implementation
// (allocate two DP rows per call, dispatch the base through its methods).
func runKernels(n int) []kernel {
	rng := rand.New(rand.NewSource(7))
	s := synth.RandomWalk(rng, n)
	q := synth.RandomWalk(rng, n)
	var out []kernel
	for _, base := range []seq.Base{seq.LInf, seq.L1, seq.L2Sq} {
		seedNs := float64(testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				seedDistance(s, q, base)
			}
		}).NsPerOp())
		newNs := float64(testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dtw.Distance(s, q, base)
			}
		}).NsPerOp())
		out = append(out, kernel{
			Op: "distance", Base: base.String(),
			NsOpSeed: seedNs, NsOpNew: newNs, Speedup: seedNs / newNs,
		})
	}
	// Early-abandoning variant at a tolerance the pair satisfies, so both
	// implementations run the full DP (worst case for the kernel).
	eps := dtw.Distance(s, q, seq.LInf) * 1.01
	seedNs := float64(testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			seedDistanceWithin(s, q, seq.LInf, eps)
		}
	}).NsPerOp())
	newNs := float64(testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dtw.DistanceWithin(s, q, seq.LInf, eps)
		}
	}).NsPerOp())
	out = append(out, kernel{
		Op: "distance_within", Base: seq.LInf.String(),
		NsOpSeed: seedNs, NsOpNew: newNs, Speedup: seedNs / newNs,
	})
	return out
}

// measureAllocs reports steady-state testing.AllocsPerRun for the pooled
// kernels after one warmup call (the first call per P may grow the pool).
func measureAllocs(n int, within bool) float64 {
	rng := rand.New(rand.NewSource(9))
	s := synth.RandomWalk(rng, n)
	q := synth.RandomWalk(rng, n)
	eps := dtw.Distance(s, q, seq.LInf) * 1.01
	if within {
		dtw.DistanceWithin(s, q, seq.LInf, eps)
		return testing.AllocsPerRun(200, func() {
			dtw.DistanceWithin(s, q, seq.LInf, eps)
		})
	}
	dtw.Distance(s, q, seq.LInf)
	return testing.AllocsPerRun(200, func() {
		dtw.Distance(s, q, seq.LInf)
	})
}

// seedDistance is the pre-kernel Distance: two fresh DP rows per call, base
// dispatched per cell through its methods. Kept here as the benchmark
// baseline so the comparison survives future kernel changes.
func seedDistance(s, q seq.Sequence, base seq.Base) float64 {
	switch {
	case s.Empty() && q.Empty():
		return 0
	case s.Empty() || q.Empty():
		return dtw.Inf
	}
	if len(q) > len(s) {
		s, q = q, s
	}
	prev := make([]float64, len(q))
	cur := make([]float64, len(q))
	for j := range prev {
		e := base.Elem(s[0], q[j])
		if j == 0 {
			prev[j] = e
		} else {
			prev[j] = base.Combine(e, prev[j-1])
		}
	}
	for i := 1; i < len(s); i++ {
		for j := range cur {
			e := base.Elem(s[i], q[j])
			best := prev[j]
			if j > 0 {
				if cur[j-1] < best {
					best = cur[j-1]
				}
				if prev[j-1] < best {
					best = prev[j-1]
				}
			}
			cur[j] = base.Combine(e, best)
		}
		prev, cur = cur, prev
	}
	return prev[len(q)-1]
}

// seedDistanceWithin is the pre-kernel DistanceWithin (same provenance as
// seedDistance).
func seedDistanceWithin(s, q seq.Sequence, base seq.Base, epsilon float64) (float64, bool) {
	switch {
	case s.Empty() && q.Empty():
		return 0, 0 <= epsilon
	case s.Empty() || q.Empty():
		return dtw.Inf, false
	}
	if epsilon < 0 {
		return dtw.Inf, false
	}
	if base.Elem(s[0], q[0]) > epsilon || base.Elem(s[len(s)-1], q[len(q)-1]) > epsilon {
		return dtw.Inf, false
	}
	if len(q) > len(s) {
		s, q = q, s
	}
	prev := make([]float64, len(q))
	cur := make([]float64, len(q))
	alive := false
	for j := range prev {
		e := base.Elem(s[0], q[j])
		if j == 0 {
			prev[j] = e
		} else {
			prev[j] = base.Combine(e, prev[j-1])
		}
		if prev[j] <= epsilon {
			alive = true
		}
	}
	if !alive {
		return dtw.Inf, false
	}
	for i := 1; i < len(s); i++ {
		alive = false
		for j := range cur {
			e := base.Elem(s[i], q[j])
			best := prev[j]
			if j > 0 {
				if cur[j-1] < best {
					best = cur[j-1]
				}
				if prev[j-1] < best {
					best = prev[j-1]
				}
			}
			cur[j] = base.Combine(e, best)
			if cur[j] <= epsilon {
				alive = true
			}
		}
		if !alive {
			return dtw.Inf, false
		}
		prev, cur = cur, prev
	}
	d := prev[len(q)-1]
	if d > epsilon {
		return dtw.Inf, false
	}
	return d, true
}
