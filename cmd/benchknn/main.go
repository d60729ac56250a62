// Command benchknn measures the envelope-sharpened k-NN walk: for every
// combination of k {1, 10, 100} and band {0, 8} it runs the same fixed-seed query set twice — once with the two-level
// frontier re-keying candidates by max(index mindist, LB_PAA) and once
// with ordering disabled — and records exact DTW calls, frontier pushes,
// re-pushes, envelope cutoffs, and throughput, writing the results as
// JSON.
//
// Usage:
//
//	go run ./cmd/benchknn                      # full run, writes BENCH_knn.json
//	go run ./cmd/benchknn -smoke               # small CI smoke run (no file)
//	go run ./cmd/benchknn -seqs 8000 -len 256
//
// Three invariants are enforced on every row before it is recorded:
//
//   - Bit-identity: the ordering-on and ordering-off legs must return
//     identical matches (ID and distance) query for query. The envelope
//     key is a lower bound, so re-keying may only reorder work, never
//     change the answer.
//
//   - Conservation: candidates = Σ per-tier pruned + dtw_calls. The
//     envelope cutoff truncates the candidate stream before it reaches
//     the cascade, so the law holds on exactly the candidates admitted.
//
//   - Fence (full mode, banded rows): at k=10 band=8 — where LB_PAA is
//     sharpest — the ordering-on leg must make at least 30% fewer exact
//     DTW calls than the ordering-off leg. That fence is
//     the reduction the two-level frontier exists to hold. The unbanded
//     LB_PAA bound is much weaker (it envelopes the query with its global
//     range), so band=0 rows are reported but not fenced.
//
// Every row carries gomaxprocs, num_cpu, and cpu_model so a result file
// is interpretable without knowing which machine produced it.
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
	"time"

	twsim "repro"
	"repro/internal/hostinfo"
	"repro/internal/synth"
)

type row struct {
	Ordering       bool    `json:"env_ordering"`
	K              int     `json:"k"`
	Band           int     `json:"band"`
	Procs          int     `json:"gomaxprocs"`
	NumCPU         int     `json:"num_cpu"`
	CPUModel       string  `json:"cpu_model"`
	QPS            float64 `json:"queries_per_sec"`
	WallMS         float64 `json:"wall_ms"`
	Candidates     int     `json:"candidates"`
	DTWCalls       int     `json:"dtw_calls"`
	FrontierPushes int     `json:"knn_frontier_pushes"`
	Repushes       int     `json:"knn_repushes"`
	EnvCutoffs     int     `json:"knn_envelope_cutoffs"`
	Matches        int     `json:"matches"`
}

type fenceRow struct {
	K            int     `json:"k"`
	Band         int     `json:"band"`
	DTWOn        int     `json:"dtw_calls_ordering_on"`
	DTWOff       int     `json:"dtw_calls_ordering_off"`
	DTWReduction float64 `json:"dtw_call_reduction"`
}

type report struct {
	GOMAXPROCS int        `json:"gomaxprocs"`
	NumCPU     int        `json:"num_cpu"`
	CPUModel   string     `json:"cpu_model"`
	Sequences  int        `json:"sequences"`
	SeqLen     int        `json:"seq_len"`
	Queries    int        `json:"queries"`
	Smoke      bool       `json:"smoke"`
	Rows       []row      `json:"rows"`
	Fences     []fenceRow `json:"fences"`
}

func main() {
	var (
		out     = flag.String("out", "BENCH_knn.json", "result file (empty = stdout only)")
		smoke   = flag.Bool("smoke", false, "small fast run for CI; implies -out \"\" and skips the reduction fence")
		seqs    = flag.Int("seqs", 4000, "number of random-walk sequences")
		seqLen  = flag.Int("len", 128, "sequence length")
		queries = flag.Int("queries", 64, "queries per pass")
	)
	flag.Parse()
	ks := []int{1, 10, 100}
	if *smoke {
		*out = ""
		*seqs, *seqLen, *queries = 300, 64, 8
		ks = []int{1, 10}
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
		NumCPU:     hostinfo.NumCPU(),
		CPUModel:   hostinfo.CPUModel(),
		Sequences:  *seqs,
		SeqLen:     *seqLen,
		Queries:    *queries,
		Smoke:      *smoke,
	}

	// dtwAt[k][band][ordering] for the fence section.
	type legKey struct {
		k, band  int
		ordering bool
	}
	dtwAt := map[legKey]int{}

	// Two databases over identical data: the ordering-off one is the
	// control every ordering-on row is verified against.
	dbOn := openDB(false, values)
	dbOff := openDB(true, values)
	for _, k := range ks {
		for _, band := range []int{0, 8} {
			oracle := runMatches(dbOff, queryVals, k, band)
			for _, procs := range procsList() {
				for _, ordering := range []bool{false, true} {
					db := dbOff
					if ordering {
						db = dbOn
					}
					r, matches, err := runLeg(db, ordering, queryVals, k, band, procs)
					if err != nil {
						log.Fatalf("benchknn: ordering=%v k=%d band=%d: %v", ordering, k, band, err)
					}
					if err := compareMatches(oracle, matches); err != nil {
						log.Fatalf("benchknn: k=%d band=%d: ordering=%v diverged from ordering-off oracle: %v",
							k, band, ordering, err)
					}
					rep.Rows = append(rep.Rows, r)
					if procs == 1 {
						dtwAt[legKey{k, band, ordering}] = r.DTWCalls
					}
					log.Printf("ordering=%-5v k=%-3d band=%d procs=%d: %.1f q/s, %d DTW calls, %d pushes, %d repushes, %d env cutoffs",
						ordering, k, band, procs, r.QPS, r.DTWCalls, r.FrontierPushes, r.Repushes, r.EnvCutoffs)
				}
			}
		}
	}
	dbOn.Close()
	dbOff.Close()

	// Fence: ordering must cut exact DTW calls by >= 30% at k=10 band=8.
	for _, k := range ks {
		for _, band := range []int{0, 8} {
			on, okOn := dtwAt[legKey{k, band, true}]
			off, okOff := dtwAt[legKey{k, band, false}]
			if !okOn || !okOff || off == 0 {
				continue
			}
			f := fenceRow{
				K: k, Band: band,
				DTWOn: on, DTWOff: off,
				DTWReduction: 1 - float64(on)/float64(off),
			}
			rep.Fences = append(rep.Fences, f)
			if !*smoke && k == 10 && band == 8 && f.DTWReduction < 0.30 {
				log.Fatalf("benchknn: k=10 band=8: DTW-call reduction %.1f%% below the 30%% fence (%d -> %d)",
					100*f.DTWReduction, off, on)
			}
			if k == 10 && band == 8 {
				log.Printf("fence: k=10 band=8: DTW calls %d -> %d (%.1f%% reduction)",
					off, on, 100*f.DTWReduction)
			}
		}
	}

	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(blob))
	if *out != "" {
		if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
			log.Fatalf("benchknn: writing %s: %v", *out, err)
		}
		log.Printf("wrote %s", *out)
	}
}

func procsList() []int {
	n := runtime.NumCPU()
	if n <= 1 {
		return []int{1}
	}
	return []int{1, n}
}

func openDB(disableOrdering bool, values [][]float64) *twsim.DB {
	// One refine worker: the legs measure the serial walk, so DTW-call
	// counts and qps are not blurred by intra-query parallelism.
	db, err := twsim.OpenMem(twsim.Options{DisableEnvOrdering: disableOrdering, RefineWorkers: 1})
	if err != nil {
		log.Fatalf("benchknn: open: %v", err)
	}
	if _, err := db.AddAll(values); err != nil {
		log.Fatalf("benchknn: load: %v", err)
	}
	return db
}

func runMatches(db *twsim.DB, queries [][]float64, k, band int) [][]twsim.Match {
	out := make([][]twsim.Match, len(queries))
	for i, q := range queries {
		res, err := db.NearestKCtx(context.Background(), q, k, band)
		if err != nil {
			log.Fatalf("benchknn: oracle k=%d band=%d: %v", k, band, err)
		}
		out[i] = res.Matches
	}
	return out
}

func runLeg(db *twsim.DB, ordering bool, queries [][]float64, k, band, procs int) (row, [][]twsim.Match, error) {
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)

	// Warm pass fills pools and caches; the timed pass is the steady state.
	for _, q := range queries {
		if _, err := db.NearestKCtx(context.Background(), q, k, band); err != nil {
			return row{}, nil, err
		}
	}
	matches := make([][]twsim.Match, len(queries))
	stats := make([]twsim.QueryStats, len(queries))
	start := time.Now()
	for i, q := range queries {
		res, err := db.NearestKCtx(context.Background(), q, k, band)
		if err != nil {
			return row{}, nil, err
		}
		matches[i], stats[i] = res.Matches, res.Stats
	}
	wall := time.Since(start)

	r := row{
		Ordering: ordering,
		K:        k,
		Band:     band,
		Procs:    procs,
		NumCPU:   hostinfo.NumCPU(),
		CPUModel: hostinfo.CPUModel(),
		QPS:      float64(len(queries)) / wall.Seconds(),
		WallMS:   float64(wall.Microseconds()) / 1e3,
	}
	for i, st := range stats {
		pruned := st.LBKimPruned + st.LBPAAPruned + st.LBKeoghPruned +
			st.LBYiPruned + st.LBImprovedPruned + st.CorridorPruned
		if st.Candidates != pruned+st.DTWCalls {
			return row{}, nil, fmt.Errorf("query %d: conservation law broken: candidates=%d pruned=%d dtw=%d",
				i, st.Candidates, pruned, st.DTWCalls)
		}
		r.Candidates += st.Candidates
		r.DTWCalls += st.DTWCalls
		r.FrontierPushes += st.KNNFrontierPushes
		r.Repushes += st.KNNRepushes
		r.EnvCutoffs += st.KNNEnvCutoffs
		r.Matches += len(matches[i])
	}
	return r, matches, nil
}

func compareMatches(want, got [][]twsim.Match) error {
	for qi := range want {
		if len(want[qi]) != len(got[qi]) {
			return fmt.Errorf("query %d: %d matches, want %d", qi, len(got[qi]), len(want[qi]))
		}
		for i := range want[qi] {
			if want[qi][i] != got[qi][i] {
				return fmt.Errorf("query %d match %d: %+v, want %+v", qi, i, got[qi][i], want[qi][i])
			}
		}
	}
	return nil
}
