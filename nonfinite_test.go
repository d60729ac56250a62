package twsim_test

import (
	"errors"
	"math"
	"testing"

	twsim "repro"
)

// poisons covers every non-finite value class the validation must reject.
var poisons = []struct {
	name string
	v    float64
}{
	{"NaN", math.NaN()},
	{"+Inf", math.Inf(1)},
	{"-Inf", math.Inf(-1)},
}

// TestNonFiniteRejected: every write and query entry point, on both the
// single and the sharded engine, refuses sequences containing NaN or ±Inf
// with an error wrapping twsim.ErrNonFinite, and a failed batch write
// inserts nothing. A non-finite element would otherwise poison the index
// silently: the R-tree range query can never reach a NaN feature, so the
// sequence becomes invisible to index searches while a linear scan may
// still match it (see TestNaNPoisonDivergence).
func TestNonFiniteRejected(t *testing.T) {
	backends := []struct {
		name string
		open func(t *testing.T) queryDB
	}{
		{"single", func(t *testing.T) queryDB {
			db, err := twsim.OpenMem(twsim.Options{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { db.Close() })
			return db
		}},
		{"sharded", func(t *testing.T) queryDB {
			db, err := twsim.OpenMemSharded(twsim.ShardedOptions{Shards: 3})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { db.Close() })
			return db
		}},
	}
	for _, be := range backends {
		t.Run(be.name, func(t *testing.T) {
			db := be.open(t)
			if _, err := db.Add([]float64{1, 2, 3}); err != nil {
				t.Fatal(err)
			}
			for _, p := range poisons {
				t.Run(p.name, func(t *testing.T) {
					bad := []float64{1, p.v, 3}
					check := func(op string, err error) {
						t.Helper()
						if !errors.Is(err, twsim.ErrNonFinite) {
							t.Errorf("%s: err = %v, want ErrNonFinite", op, err)
						}
					}

					_, err := db.Add(bad)
					check("Add", err)

					before := db.Len()
					_, err = db.AddBatch([][]float64{{4, 5}, bad, {6, 7}})
					check("AddBatch", err)
					if db.Len() != before {
						t.Errorf("AddBatch inserted %d sequences before failing", db.Len()-before)
					}

					_, err = db.Search(bad, 1)
					check("Search", err)
					_, err = db.NearestK(bad, 1)
					check("NearestK", err)
					_, err = db.NearestKCtx(bg, bad, 1, 0)
					check("NearestKCtx", err)
					_, err = db.SearchBatchCtx(bg, [][]float64{{1, 2, 3}, bad}, 1, 0, 2)
					check("SearchBatchCtx", err)
				})
			}
		})
	}
}

// TestNonFiniteRejectedSingleOnly covers the entry points that exist only
// on *DB: AddAll (with rollback) and subsequence search.
func TestNonFiniteRejectedSingleOnly(t *testing.T) {
	db, err := twsim.OpenMem(twsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 4; i++ {
		if _, err := db.Add([]float64{float64(i), float64(i + 1), float64(i + 2), float64(i + 3)}); err != nil {
			t.Fatal(err)
		}
	}
	si, err := db.BuildSubseqIndex([]int{3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer si.Close()
	for _, p := range poisons {
		t.Run(p.name, func(t *testing.T) {
			bad := []float64{1, p.v}
			before := db.Len()
			if _, err := db.AddAll([][]float64{{8, 9}, bad}); !errors.Is(err, twsim.ErrNonFinite) {
				t.Errorf("AddAll: err = %v, want ErrNonFinite", err)
			}
			if db.Len() != before {
				t.Errorf("AddAll inserted %d sequences before failing", db.Len()-before)
			}
			if _, err := si.Search(bad, 1); !errors.Is(err, twsim.ErrNonFinite) {
				t.Errorf("SubseqIndex.Search: err = %v, want ErrNonFinite", err)
			}
		})
	}
}

// TestDistanceNonFinite pins the contract of the standalone distance
// functions on non-finite input: every warping path visits every element,
// so a NaN or ±Inf anywhere leaves no path with a finite cost. Distance
// and BandDistance return +Inf and DistanceWithin reports (+Inf, false) at
// any finite tolerance — for NaN at the first, a middle and the last
// element, on either side, under every base. (NaN once slipped through the
// DP's min comparisons and made Distance report a perfect match of 0
// while DistanceWithin rejected the same pair.)
func TestDistanceNonFinite(t *testing.T) {
	clean := []float64{0, 1, 2}
	for _, p := range poisons {
		for pos := range clean {
			bad := append([]float64(nil), 0, 1, 2)
			bad[pos] = p.v
			for _, base := range []twsim.Base{twsim.BaseLInf, twsim.BaseL1, twsim.BaseL2Sq} {
				for _, pair := range [][2][]float64{{bad, clean}, {clean, bad}} {
					s, q := pair[0], pair[1]
					if d := twsim.Distance(s, q, base); !math.IsInf(d, 1) {
						t.Errorf("Distance(%v, %v, %v) = %v, want +Inf", s, q, base, d)
					}
					if d, ok := twsim.DistanceWithin(s, q, base, 5); ok || !math.IsInf(d, 1) {
						t.Errorf("DistanceWithin(%v, %v, %v, 5) = (%v, %v), want (+Inf, false)", s, q, base, d, ok)
					}
					for _, r := range []int{-1, 0, 2} {
						if d := twsim.BandDistance(s, q, base, r); !math.IsInf(d, 1) {
							t.Errorf("BandDistance(%v, %v, %v, r=%d) = %v, want +Inf", s, q, base, r, d)
						}
					}
				}
			}
		}
	}
}
