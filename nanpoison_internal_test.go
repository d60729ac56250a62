package twsim

import (
	"math"
	"testing"

	"repro/internal/seq"
)

// poisonDB builds a database holding finite sequences plus one NaN-bearing
// sequence smuggled past the Add-time validation, the way the seed accepted
// it: straight into the heap and the feature index.
func poisonDB(t *testing.T) (*DB, ID) {
	t.Helper()
	db, err := OpenMem(Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	for _, s := range [][]float64{{5, 6, 7}, {-3, -2, -1}, {10, 10, 10}} {
		if _, err := db.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	poisoned := seq.Sequence{math.NaN(), 1}
	id, err := db.store.Append(poisoned)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.index.Insert(id, poisoned); err != nil {
		t.Fatal(err)
	}
	return db, ID(id)
}

// TestNaNPoisonDivergence is the regression test for the headline bug: in
// the seed, Add accepted sequences containing NaN, and the price was two
// provably-exact search methods silently returning different answers —
// the paper's Theorem 1 equivalence broken without any error surfacing.
//
// The witness: store S = [NaN, 1] and query Q = [1]. NaN loses every
// ordered comparison, and the seed's DP loops disagreed on what that
// meant. The exact L∞ kernel let NaN drop out of its max/min comparisons
// and evaluated Dtw(S, Q) to 0, so the index + refine path reported S as a
// distance-0 match; the early-abandoning kernel the sequential-scan
// baseline used found no cell ≤ ε in the NaN row and dismissed S. Same
// database, same query, same ε: one exact method returned S, the other
// silently did not.
//
// Two fixes close it. The state is unreachable through the public API
// (Add and friends return ErrNonFinite; see TestNonFiniteRejected), and
// should it arise anyway via on-disk corruption, Verify and
// CheckInvariants both flag it. And every distance now runs one DP kernel
// in which a NaN element makes the distance +Inf (TestDistanceNonFinite),
// so the exact distance, the index search and the scan agree that S is
// no match.
func TestNaNPoisonDivergence(t *testing.T) {
	db, id := poisonDB(t)
	q := []float64{1}
	const eps = 0.5

	d, err := db.Distance(id, q)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(d, 1) {
		t.Fatalf("exact Dtw = %g for the poisoned pair, want +Inf", d)
	}
	searches := []struct {
		name   string
		search func([]float64, float64) (*Result, error)
	}{
		{"index", db.Search},
		{"naive scan", db.BaselineNaiveScan().Search},
	}
	for _, s := range searches {
		res, err := s.search(q, eps)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range res.Matches {
			if m.ID == id {
				t.Fatalf("%s matched the poisoned sequence (%+v)", s.name, m)
			}
		}
	}

	// The integrity checkers must refuse to bless the poisoned state.
	if err := db.Verify(); err == nil {
		t.Error("Verify passed on a database with a NaN-poisoned sequence")
	}
	if err := db.CheckInvariants(); err == nil {
		t.Error("CheckInvariants passed on an index with a NaN feature entry")
	}
}
