package dtw

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/seq"
)

func TestItakuraNeverBelowUnconstrained(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 200; trial++ {
		s := randSeq(rng, 15)
		q := randSeq(rng, 15)
		full := Distance(s, q, seq.LInf)
		it := ItakuraDistance(s, q, seq.LInf)
		if it < full-1e-9 {
			t.Fatalf("Itakura %g < unconstrained %g (s=%v q=%v)", it, full, s, q)
		}
	}
}

func TestItakuraEqualOnDiagonalFriendlyPairs(t *testing.T) {
	// Equal-length sequences that are element-wise close: the diagonal is
	// a legal Itakura path, so the optimal unconstrained path is available
	// whenever it is itself the diagonal.
	s := seq.Sequence{1, 2, 3, 4}
	if got := ItakuraDistance(s, s, seq.LInf); got != 0 {
		t.Errorf("self distance = %g", got)
	}
	q := seq.Sequence{1.5, 2.5, 3.5, 4.5}
	if got := ItakuraDistance(s, q, seq.LInf); got != 0.5 {
		t.Errorf("near-diagonal distance = %g, want 0.5", got)
	}
}

func TestItakuraInfeasibleLengthRatio(t *testing.T) {
	// |S| more than twice |Q| leaves no legal path.
	s := seq.Sequence{1, 1, 1, 1, 1, 1, 1}
	q := seq.Sequence{1, 1}
	if got := ItakuraDistance(s, q, seq.LInf); !math.IsInf(got, 1) {
		t.Errorf("infeasible ratio gave %g, want +Inf", got)
	}
	// A moderate length ratio (15 vs 10) leaves the parallelogram roomy.
	s2 := make(seq.Sequence, 10)
	q2 := make(seq.Sequence, 15)
	for i := range s2 {
		s2[i] = 1
	}
	for i := range q2 {
		q2[i] = 1
	}
	if got := ItakuraDistance(s2, q2, seq.LInf); got != 0 {
		t.Errorf("constant 10v15 = %g, want 0", got)
	}
}

func TestItakuraEmpty(t *testing.T) {
	if got := ItakuraDistance(nil, nil, seq.LInf); got != 0 {
		t.Errorf("empty-empty = %g", got)
	}
	if got := ItakuraDistance(seq.Sequence{1}, nil, seq.LInf); !math.IsInf(got, 1) {
		t.Errorf("S-empty = %g", got)
	}
}

func TestItakuraSingletons(t *testing.T) {
	if got := ItakuraDistance(seq.Sequence{3}, seq.Sequence{5}, seq.LInf); got != 2 {
		t.Errorf("singleton = %g", got)
	}
	// 1 vs 2 elements: the endpoint slope constraint leaves no legal path
	// (the unconstrained DTW would happily replicate the single element).
	if got := ItakuraDistance(seq.Sequence{3}, seq.Sequence{3, 4}, seq.L1); !math.IsInf(got, 1) {
		t.Errorf("1v2 = %g, want +Inf under Itakura", got)
	}
}

func TestItakuraTighterThanChibaWideBand(t *testing.T) {
	// With a full-width Sakoe–Chiba band the banded distance equals the
	// unconstrained one, while Itakura may still exclude extreme warpings:
	// Itakura >= full must always hold, with strict inequality on some
	// input that needs slope > 2.
	s := seq.Sequence{0, 10, 10, 10, 10, 10}
	q := seq.Sequence{0, 0, 0, 0, 0, 10}
	full := Distance(s, q, seq.LInf)
	it := ItakuraDistance(s, q, seq.LInf)
	if it < full {
		t.Fatalf("it=%g < full=%g", it, full)
	}
}

// TestItakuraMatchesDense: the kernel run over the parallelogram's row
// intervals is bit-identical to the dense DP over its legal cells, for
// every base and every length pair up to 24, feasible ratio or not. The
// oracle's rows come from scanning the cell-wise legality predicate, not
// from ItakuraDistance's interval formula.
func TestItakuraMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	for n := 1; n <= 24; n++ {
		for m := 1; m <= 24; m++ {
			shape := (n + m) % 3
			s, q := bandTestSeq(rng, n, shape), bandTestSeq(rng, m, shape)
			rows := func(i int) (lo, hi int) {
				lo, hi = m, -1
				for j := 0; j < m; j++ {
					ri, rj := n-1-i, m-1-j
					if 2*i >= j && 2*j >= i && 2*ri >= rj && 2*rj >= ri {
						lo, hi = min(lo, j), j
					}
				}
				return lo, hi
			}
			for _, base := range cascadeBases {
				want, _ := denseDP(s, q, base, rows, Inf)
				poisonRows(m)
				if got := ItakuraDistance(s, q, base); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("ItakuraDistance(|s|=%d, |q|=%d, %v) = %v, dense %v", n, m, base, got, want)
				}
			}
		}
	}
}
