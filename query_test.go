package twsim_test

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	twsim "repro"
)

// TestConcurrentQueriesSmallPool: many concurrent range and k-NN queries
// on a database whose buffer pools are far smaller than the pages the
// queries pin at once must neither fail nor drift — every answer is
// bit-identical to the same query run alone. Run with -race this also
// covers the pool's over-budget frames.
func TestConcurrentQueriesSmallPool(t *testing.T) {
	data := randomWalks(97, 300, 24, 48)
	queries := data[:6]
	type spec struct {
		knn  bool
		q    []float64
		band int
	}
	var specs []spec
	for _, q := range queries {
		for _, band := range []int{0, 4} {
			specs = append(specs, spec{false, q, band}, spec{true, q, band})
		}
	}
	run := func(db queryDB, s spec) (*twsim.Result, error) {
		if s.knn {
			return db.NearestKCtx(bg, s.q, 5, s.band)
		}
		return db.SearchCtx(bg, s.q, 0.4, s.band)
	}
	for _, eng := range testEngines {
		t.Run(eng.name, func(t *testing.T) {
			db := eng.open(t, twsim.Options{PoolPages: 4, RefineWorkers: 4}) // one stripe of 4 frames
			if _, err := db.AddBatch(data); err != nil {
				t.Fatal(err)
			}
			want := make([][]twsim.Match, len(specs))
			for i, s := range specs {
				res, err := run(db, s)
				if err != nil {
					t.Fatal(err)
				}
				want[i] = res.Matches
			}
			const goroutines = 12
			errs := make(chan error, goroutines)
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for r := 0; r < 2; r++ {
						for i := range specs {
							i := (i + g) % len(specs)
							res, err := run(db, specs[i])
							if err != nil {
								errs <- err
								return
							}
							if !matchesEqual(res.Matches, want[i]) {
								errs <- fmt.Errorf("query %d (knn=%v band=%d): concurrent answer differs from serial", i, specs[i].knn, specs[i].band)
								return
							}
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}

// TestInvalidQueryErrors: every rejection of a query's own inputs, on
// every entry point of both engines, matches ErrInvalidQuery; a non-finite
// query matches ErrNonFinite as well.
func TestInvalidQueryErrors(t *testing.T) {
	for _, eng := range testEngines {
		t.Run(eng.name, func(t *testing.T) {
			db := eng.open(t, twsim.Options{})
			if _, err := db.AddBatch(randomWalks(98, 10, 8, 16)); err != nil {
				t.Fatal(err)
			}
			ok := []float64{1, 2, 3}
			bad := []float64{1, math.NaN(), 3}
			cases := []struct {
				name      string
				nonFinite bool
				call      func() error
			}{
				{"search-empty", false, func() error { _, err := db.SearchCtx(bg, nil, 0.5, 0); return err }},
				{"search-nonfinite", true, func() error { _, err := db.SearchCtx(bg, bad, 0.5, 0); return err }},
				{"search-negative-eps", false, func() error { _, err := db.SearchCtx(bg, ok, -0.5, 0); return err }},
				{"search-negative-band", false, func() error { _, err := db.SearchCtx(bg, ok, 0.5, -1); return err }},
				{"knn-empty", false, func() error { _, err := db.NearestKCtx(bg, nil, 2, 0); return err }},
				{"knn-nonfinite", true, func() error { _, err := db.NearestKCtx(bg, bad, 2, 0); return err }},
				{"knn-negative-band", false, func() error { _, err := db.NearestKCtx(bg, ok, 2, -1); return err }},
				{"batch-empty", false, func() error { _, err := db.SearchBatchCtx(bg, [][]float64{ok, nil}, 0.5, 0, 1); return err }},
				{"batch-nonfinite", true, func() error { _, err := db.SearchBatchCtx(bg, [][]float64{bad}, 0.5, 0, 1); return err }},
				{"batch-negative-eps", false, func() error { _, err := db.SearchBatchCtx(bg, [][]float64{ok}, -1, 0, 1); return err }},
				{"batch-negative-band", false, func() error { _, err := db.SearchBatchCtx(bg, [][]float64{ok}, 0.5, -1, 1); return err }},
			}
			for _, c := range cases {
				err := c.call()
				if !errors.Is(err, twsim.ErrInvalidQuery) {
					t.Errorf("%s: %v, want ErrInvalidQuery", c.name, err)
				}
				if errors.Is(err, twsim.ErrNonFinite) != c.nonFinite {
					t.Errorf("%s: errors.Is(%v, ErrNonFinite) != %v", c.name, err, c.nonFinite)
				}
			}
		})
	}
}
