// Command benchshards measures the sharded query engine's batch-search
// throughput against the single-shard baseline on a synthetic random-walk
// workload (the paper's §5.1 generator), writing the results as JSON.
//
// Usage:
//
//	go run ./cmd/benchshards                    # full run, writes BENCH_shard.json
//	go run ./cmd/benchshards -smoke             # small CI smoke run (no file)
//	go run ./cmd/benchshards -seqs 8000 -len 256 -queries 128
//
// Each configuration builds an in-memory database with the same data and
// queries (fixed seed), then times one warmed SearchBatchCtx. Reported per
// configuration: queries/sec, per-query p50/p99 latency, exact-DTW call
// count, and candidate ratio. Shard counts default to {1, 4, NumCPU},
// deduplicated, and every count runs twice — once at GOMAXPROCS=1 and once
// at the machine's full width — with both rows recorded (per-row
// "gomaxprocs" field). Sharding pays off through N independent buffer
// pools (one mutex each, N x aggregate cache) plus parallel DTW
// verification, so expect the multi-shard gain only in the full-width
// rows; the GOMAXPROCS=1 rows isolate pool-contention relief.
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
	"time"

	twsim "repro"
	"repro/internal/hostinfo"
	"repro/internal/synth"
)

type config struct {
	Shards      int     `json:"shards"`
	Procs       int     `json:"gomaxprocs"`
	NumCPU      int     `json:"num_cpu"`
	CPUModel    string  `json:"cpu_model"`
	QPS         float64 `json:"queries_per_sec"`
	WallMS      float64 `json:"wall_ms"`
	P50MS       float64 `json:"p50_ms"`
	P99MS       float64 `json:"p99_ms"`
	DTWCalls    int     `json:"dtw_calls"`
	Candidates  int     `json:"candidates"`
	Matches     int     `json:"matches"`
	SpeedupVs1x float64 `json:"speedup_vs_1_shard"`
}

type report struct {
	GOMAXPROCS int      `json:"gomaxprocs"`
	NumCPU     int      `json:"num_cpu"`
	Sequences  int      `json:"sequences"`
	SeqLen     int      `json:"seq_len"`
	Queries    int      `json:"queries"`
	Epsilon    float64  `json:"epsilon"`
	Smoke      bool     `json:"smoke"`
	Configs    []config `json:"configs"`
}

func main() {
	var (
		out     = flag.String("out", "BENCH_shard.json", "result file (empty = stdout only)")
		smoke   = flag.Bool("smoke", false, "small fast run for CI; implies -out \"\"")
		seqs    = flag.Int("seqs", 4000, "number of random-walk sequences")
		seqLen  = flag.Int("len", 128, "sequence length")
		queries = flag.Int("queries", 64, "queries per batch")
		eps     = flag.Float64("eps", 0.35, "search tolerance (paper's epsilon)")
	)
	flag.Parse()
	if *smoke {
		*out = ""
		*seqs, *seqLen, *queries = 300, 64, 8
	}

	rng := rand.New(rand.NewSource(42))
	data := synth.RandomWalkSet(rng, *seqs, *seqLen)
	values := make([][]float64, len(data))
	for i, s := range data {
		values[i] = s
	}
	qs := synth.Queries(rng, data, *queries)
	queryVals := make([][]float64, len(qs))
	for i, q := range qs {
		queryVals[i] = q
	}

	rep := report{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Sequences:  *seqs,
		SeqLen:     *seqLen,
		Queries:    *queries,
		Epsilon:    *eps,
		Smoke:      *smoke,
	}
	// Every shard count runs at both GOMAXPROCS=1 (the serial baseline —
	// shows pure pool-contention relief) and the machine's full width (the
	// parallel-verification payoff). Speedups are computed within each
	// procs group against its own 1-shard baseline, never across groups.
	for _, procs := range procsList() {
		baseIdx := len(rep.Configs)
		for _, n := range shardCounts(rep.NumCPU) {
			c, err := runConfig(n, procs, values, queryVals, *eps)
			if err != nil {
				log.Fatalf("benchshards: %d shards procs=%d: %v", n, procs, err)
			}
			if len(rep.Configs) > baseIdx {
				c.SpeedupVs1x = c.QPS / rep.Configs[baseIdx].QPS
			} else {
				c.SpeedupVs1x = 1
			}
			rep.Configs = append(rep.Configs, c)
			log.Printf("shards=%d procs=%d: %.1f queries/sec (p50 %.2f ms, p99 %.2f ms, %d DTW calls, %.1f%% candidates)",
				c.Shards, procs, c.QPS, c.P50MS, c.P99MS, c.DTWCalls,
				100*float64(c.Candidates)/float64(*seqs**queries))
		}
	}

	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(blob))
	if *out != "" {
		if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
			log.Fatalf("benchshards: writing %s: %v", *out, err)
		}
		log.Printf("wrote %s", *out)
	}
}

// shardCounts returns {1, 4, NumCPU} deduplicated and sorted, so the
// baseline always runs first.
func shardCounts(maxprocs int) []int {
	set := map[int]bool{1: true, 4: true, maxprocs: true}
	var out []int
	for n := range set {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// procsList returns the GOMAXPROCS settings every configuration runs at:
// 1 and the machine's full width (deduplicated on single-core runners).
func procsList() []int {
	n := runtime.NumCPU()
	if n <= 1 {
		return []int{1}
	}
	return []int{1, n}
}

func runConfig(shards, procs int, data, queries [][]float64, eps float64) (config, error) {
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	db, err := twsim.OpenMemSharded(twsim.ShardedOptions{Shards: shards})
	if err != nil {
		return config{}, err
	}
	defer db.Close()
	if _, err := db.AddBatch(data); err != nil {
		return config{}, err
	}

	// Warm the buffer pools with one untimed pass.
	if _, err := db.SearchBatchCtx(context.Background(), queries, eps, db.DefaultBand(), 0); err != nil {
		return config{}, err
	}

	start := time.Now()
	results, err := db.SearchBatchCtx(context.Background(), queries, eps, db.DefaultBand(), 0)
	wall := time.Since(start)
	if err != nil {
		return config{}, err
	}

	lat := make([]time.Duration, len(results))
	c := config{Shards: shards, Procs: procs, NumCPU: hostinfo.NumCPU(), CPUModel: hostinfo.CPUModel()}
	for i, r := range results {
		lat[i] = r.Stats.Wall
		c.DTWCalls += r.Stats.DTWCalls
		c.Candidates += r.Stats.Candidates
		c.Matches += len(r.Matches)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	c.WallMS = float64(wall.Microseconds()) / 1e3
	c.QPS = float64(len(queries)) / wall.Seconds()
	c.P50MS = float64(lat[len(lat)/2].Microseconds()) / 1e3
	c.P99MS = float64(lat[len(lat)*99/100].Microseconds()) / 1e3
	return c, nil
}
