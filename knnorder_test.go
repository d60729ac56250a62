package twsim_test

import (
	"fmt"
	"math/rand"
	"testing"

	twsim "repro"
)

// knnCorpus builds a deterministic random-walk corpus plus near-miss
// queries shared by the ordering-oracle tests.
func knnCorpus(rng *rand.Rand, n, length, queries int) (data, qs [][]float64) {
	data = make([][]float64, n)
	for i := range data {
		s := make([]float64, length)
		v := rng.NormFloat64()
		for j := range s {
			v += rng.NormFloat64() * 0.1
			s[j] = v
		}
		data[i] = s
	}
	qs = make([][]float64, queries)
	for i := range qs {
		q := append([]float64(nil), data[rng.Intn(n)]...)
		for j := range q {
			q[j] += (rng.Float64() - 0.5) * 0.1
		}
		qs[i] = q
	}
	return data, qs
}

// TestNearestKOrderingOracle is the envelope-ordering bit-identity matrix:
// for every base × backend shape × band × worker budget, a
// database with envelope-sharpened k-NN ordering (the default) and one
// with it disabled must return identical matches — same IDs, same float64
// distances, same order — for every query and k. The ordering tier re-keys
// candidates by sound lower bounds and defers exact DP work; it may only
// reorder and skip work, never change an answer (DESIGN.md §12). Subtest
// names keep their engine=guttman segment from when the matrix also had a
// flat-engine axis, so each leg is still reported under one stable name.
func TestNearestKOrderingOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(811))
	data, qs := knnCorpus(rng, 120, 64, 4)

	for _, base := range []twsim.Base{twsim.BaseLInf, twsim.BaseL1, twsim.BaseL2Sq} {
		for _, sharded := range []bool{false, true} {
			for _, band := range []int{0, 8} {
				for _, workers := range []int{1, 4} {
					name := fmt.Sprintf("base=%v/sharded=%v/engine=guttman/band=%d/workers=%d",
						base, sharded, band, workers)
					t.Run(name, func(t *testing.T) {
						open := func(disable bool) queryDB {
							opts := twsim.Options{
								Base:               base,
								Band:               band,
								RefineWorkers:      workers,
								DisableEnvOrdering: disable,
							}
							var b queryDB
							var err error
							if sharded {
								b, err = twsim.OpenMemSharded(twsim.ShardedOptions{Options: opts, Shards: 3})
							} else {
								b, err = twsim.OpenMem(opts)
							}
							if err != nil {
								t.Fatalf("open (disable=%v): %v", disable, err)
							}
							if _, err := b.AddBatch(data); err != nil {
								t.Fatalf("load (disable=%v): %v", disable, err)
							}
							return b
						}
						on := open(false)
						defer on.Close()
						off := open(true)
						defer off.Close()
						for qi, q := range qs {
							for _, k := range []int{1, 7} {
								rOn, err := on.NearestKCtx(bg, q, k, band)
								if err != nil {
									t.Fatal(err)
								}
								rOff, err := off.NearestKCtx(bg, q, k, band)
								if err != nil {
									t.Fatal(err)
								}
								mOn, mOff := rOn.Matches, rOff.Matches
								if !matchesEqual(mOn, mOff) {
									t.Fatalf("query %d k=%d: ordering on/off diverged: on=%v off=%v",
										qi, k, mOn, mOff)
								}
							}
						}
					})
				}
			}
		}
	}
}

// TestNearestKReopenOracle: an on-disk banded database answers k-NN and
// range queries bit-identically before Close and after Open, so the index
// read back from feature.rtree is the one that was written.
func TestNearestKReopenOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(911))
	data, qs := knnCorpus(rng, 150, 64, 4)
	dir := t.TempDir()

	opts := twsim.Options{Band: 8}
	type answers struct {
		knn     [][]twsim.Match
		matches [][]twsim.Match
	}
	collect := func(db *twsim.DB) answers {
		var a answers
		for _, q := range qs {
			ms, err := db.NearestK(q, 5) // Options.Band is 8
			if err != nil {
				t.Fatal(err)
			}
			a.knn = append(a.knn, ms)
			r, err := db.Search(q, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			a.matches = append(a.matches, r.Matches)
		}
		return a
	}

	db, err := twsim.Create(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddAll(data); err != nil {
		t.Fatal(err)
	}
	before := collect(db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = twsim.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if notes := db.OpenDiagnostics(); len(notes) != 0 {
		t.Fatalf("clean reopen left diagnostics: %v", notes)
	}
	after := collect(db)

	for qi := range qs {
		if !matchesEqual(before.knn[qi], after.knn[qi]) {
			t.Fatalf("query %d: k-NN diverged across Close/Open", qi)
		}
		if !matchesEqual(before.matches[qi], after.matches[qi]) {
			t.Fatalf("query %d: Search diverged across Close/Open", qi)
		}
	}
}

func matchesEqual(a, b []twsim.Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Dist != b[i].Dist {
			return false
		}
	}
	return true
}
