// Quickstart: store a handful of sequences of different lengths and run a
// time-warping similarity search — the paper's §1 example pair included.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	twsim "repro"
)

func main() {
	db, err := twsim.OpenMem(twsim.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// Sequences of different lengths — the situation the Euclidean
	// distance cannot handle at all.
	sequences := [][]float64{
		{20, 21, 21, 20, 20, 23, 23, 23}, // paper §1: warps exactly onto the query
		{20, 20, 21, 22, 23},
		{30, 31, 32, 30},
		{20, 19, 18, 17, 16, 15},
		{20.5, 21.2, 20.1, 23.4},
	}
	if _, err := db.AddAll(sequences); err != nil {
		log.Fatal(err)
	}

	query := []float64{20, 20, 21, 20, 23}
	fmt.Printf("query: %v\n\n", query)

	for _, eps := range []float64{0.0, 0.5, 1.0} {
		res, err := db.Search(query, eps)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("tolerance %.1f -> %d matches (%d candidates from the index)\n",
			eps, len(res.Matches), res.Stats.Candidates)
		for _, m := range res.Matches {
			s, _ := db.Get(m.ID)
			fmt.Printf("   id %d  dist %.3f  %v\n", m.ID, m.Dist, s)
		}
	}

	// The distance function is available directly, along with the optimal
	// warping path (which element mapped to which).
	d, path := twsim.WarpingPath(sequences[0], query, twsim.BaseLInf)
	fmt.Printf("\nDtw(seq0, query) = %g via %d element mappings\n", d, len(path))

	// And the lower bound the index filters with (paper's Definition 3).
	fmt.Printf("Dtw-lb(seq0, query) = %g (never exceeds the true distance)\n",
		twsim.LowerBound(sequences[0], query))

	// Exact k-nearest neighbors under time warping.
	nn, err := db.NearestK(query, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n3 nearest sequences under time warping:")
	for i, m := range nn {
		fmt.Printf("  %d. id %d  dist %.3f\n", i+1, m.ID, m.Dist)
	}

	// The Ctx forms take a context (cancellation, deadlines) and a per-query
	// Sakoe–Chiba band, and return the query's work counters: here the same
	// range query with warping limited to one step off the diagonal.
	banded, err := db.SearchCtx(context.Background(), query, 1.0, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nband 1, tolerance 1.0 -> %d matches (%d exact DTW evaluations)\n",
		len(banded.Matches), banded.Stats.DTWCalls)
	// Invalid inputs are rejected up front with ErrInvalidQuery.
	if _, err := db.SearchCtx(context.Background(), query, -1, 0); errors.Is(err, twsim.ErrInvalidQuery) {
		fmt.Println("negative tolerance rejected:", err)
	}
}
