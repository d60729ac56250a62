package dtw

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/seq"
)

// refDistance is a direct memoized transcription of the paper's recursive
// Definition 1/2, used as the ground truth for the DP implementation.
func refDistance(s, q seq.Sequence, base seq.Base) float64 {
	switch {
	case s.Empty() && q.Empty():
		return 0
	case s.Empty() || q.Empty():
		return Inf
	}
	memo := make(map[[2]int]float64)
	var rec func(i, j int) float64
	rec = func(i, j int) float64 {
		// rec computes Dtw over s[i:], q[j:].
		if i == len(s) && j == len(q) {
			return 0
		}
		if i == len(s) || j == len(q) {
			return Inf
		}
		key := [2]int{i, j}
		if v, ok := memo[key]; ok {
			return v
		}
		e := base.Elem(s[i], q[j])
		m := rec(i, j+1)
		if v := rec(i+1, j); v < m {
			m = v
		}
		if v := rec(i+1, j+1); v < m {
			m = v
		}
		var out float64
		if math.IsInf(m, 1) {
			// Terminal cell: both final elements consumed together.
			if i == len(s)-1 && j == len(q)-1 {
				out = e
			} else {
				out = Inf
			}
		} else {
			out = base.Combine(e, m)
		}
		memo[key] = out
		return out
	}
	return rec(0, 0)
}

func randSeq(rng *rand.Rand, maxLen int) seq.Sequence {
	n := 1 + rng.Intn(maxLen)
	s := make(seq.Sequence, n)
	for i := range s {
		s[i] = rng.Float64()*20 - 10
	}
	return s
}

func TestDistancePaperExample(t *testing.T) {
	// §1: these two warp onto the same sequence, so their distance is 0.
	s := seq.Sequence{20, 21, 21, 20, 20, 23, 23, 23}
	q := seq.Sequence{20, 20, 21, 20, 23}
	for _, base := range []seq.Base{seq.LInf, seq.L1, seq.L2Sq} {
		if got := Distance(s, q, base); got != 0 {
			t.Errorf("base %v: Distance = %g, want 0", base, got)
		}
	}
}

func TestDistanceEmpty(t *testing.T) {
	var empty seq.Sequence
	s := seq.Sequence{1, 2}
	if got := Distance(empty, empty, seq.LInf); got != 0 {
		t.Errorf("Dtw(<>, <>) = %g, want 0", got)
	}
	if got := Distance(s, empty, seq.LInf); !math.IsInf(got, 1) {
		t.Errorf("Dtw(S, <>) = %g, want +Inf", got)
	}
	if got := Distance(empty, s, seq.LInf); !math.IsInf(got, 1) {
		t.Errorf("Dtw(<>, Q) = %g, want +Inf", got)
	}
}

func TestDistanceSingletons(t *testing.T) {
	if got := Distance(seq.Sequence{3}, seq.Sequence{7}, seq.LInf); got != 4 {
		t.Errorf("Distance = %g, want 4", got)
	}
	if got := Distance(seq.Sequence{3}, seq.Sequence{7}, seq.L2Sq); got != 16 {
		t.Errorf("Distance L2sq = %g, want 16", got)
	}
	// One element vs many: the single element must match all of them.
	if got := Distance(seq.Sequence{5}, seq.Sequence{4, 6, 5}, seq.L1); got != 2 {
		t.Errorf("Distance L1 = %g, want 2", got)
	}
	if got := Distance(seq.Sequence{5}, seq.Sequence{4, 6, 5}, seq.LInf); got != 1 {
		t.Errorf("Distance Linf = %g, want 1", got)
	}
}

func TestDistanceMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, base := range []seq.Base{seq.LInf, seq.L1, seq.L2Sq} {
		for trial := 0; trial < 200; trial++ {
			s := randSeq(rng, 12)
			q := randSeq(rng, 12)
			want := refDistance(s, q, base)
			got := Distance(s, q, base)
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("base %v: Distance(%v, %v) = %g, ref %g", base, s, q, got, want)
			}
		}
	}
}

func TestDistanceSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		s := randSeq(rng, 20)
		q := randSeq(rng, 20)
		for _, base := range []seq.Base{seq.LInf, seq.L1} {
			a := Distance(s, q, base)
			b := Distance(q, s, base)
			if math.Abs(a-b) > 1e-9 {
				t.Fatalf("base %v asymmetric: %g vs %g", base, a, b)
			}
		}
	}
}

func TestDistanceIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		s := randSeq(rng, 30)
		if got := Distance(s, s, seq.LInf); got != 0 {
			t.Fatalf("Distance(s, s) = %g", got)
		}
	}
}

// Time warping invariance: replicating elements never changes the distance.
func TestDistanceWarpInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 100; trial++ {
		s := randSeq(rng, 10)
		q := randSeq(rng, 10)
		warped := make(seq.Sequence, 0, 2*len(s))
		for _, v := range s {
			for k := 0; k <= rng.Intn(3); k++ {
				warped = append(warped, v)
			}
		}
		a := Distance(s, q, seq.LInf)
		b := Distance(warped, q, seq.LInf)
		if math.Abs(a-b) > 1e-9 {
			t.Fatalf("warping changed Linf distance: %g vs %g (%v -> %v)", a, b, s, warped)
		}
	}
}

func TestDistanceWithinAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, base := range []seq.Base{seq.LInf, seq.L1, seq.L2Sq} {
		for trial := 0; trial < 300; trial++ {
			s := randSeq(rng, 15)
			q := randSeq(rng, 15)
			exact := Distance(s, q, base)
			eps := rng.Float64() * 10
			d, ok := DistanceWithin(s, q, base, eps)
			if ok != (exact <= eps) {
				t.Fatalf("base %v eps %g: ok=%v but exact=%g", base, eps, ok, exact)
			}
			if ok && math.Abs(d-exact) > 1e-9 {
				t.Fatalf("base %v: within returned %g, exact %g", base, d, exact)
			}
			if !ok && !math.IsInf(d, 1) {
				t.Fatalf("abandoned computation returned finite %g", d)
			}
		}
	}
}

func TestDistanceWithinEdgeCases(t *testing.T) {
	s := seq.Sequence{1, 2}
	if _, ok := DistanceWithin(s, s, seq.LInf, -1); ok {
		t.Error("negative epsilon accepted")
	}
	if d, ok := DistanceWithin(nil, nil, seq.LInf, 0); !ok || d != 0 {
		t.Errorf("empty-empty = (%g, %v), want (0, true)", d, ok)
	}
	if _, ok := DistanceWithin(s, nil, seq.LInf, 100); ok {
		t.Error("empty vs non-empty accepted")
	}
	// First/last pre-check must fire.
	if _, ok := DistanceWithin(seq.Sequence{0, 5}, seq.Sequence{0, 50}, seq.LInf, 1); ok {
		t.Error("last-element pre-check failed")
	}
}

func TestWithin(t *testing.T) {
	s := seq.Sequence{1, 2, 3}
	q := seq.Sequence{1, 2, 4}
	if d, ok := DistanceWithin(s, q, seq.LInf, 1); !ok || d != 1 {
		t.Errorf("DistanceWithin(s, q, 1) = (%v, %v), distance is 1", d, ok)
	}
	if _, ok := DistanceWithin(s, q, seq.LInf, 0.5); ok {
		t.Error("DistanceWithin(s, q, 0.5) reported ok, distance is 1")
	}
}

func TestBandDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 100; trial++ {
		s := randSeq(rng, 12)
		q := randSeq(rng, 12)
		full := Distance(s, q, seq.LInf)
		// No band: identical to the unconstrained distance.
		if got := BandDistance(s, q, seq.LInf, -1); math.Abs(got-full) > 1e-9 {
			t.Fatalf("BandDistance(r=-1) = %g, want %g", got, full)
		}
		// A huge band imposes no constraint.
		if got := BandDistance(s, q, seq.LInf, 1000); math.Abs(got-full) > 1e-9 {
			t.Fatalf("BandDistance(r=1000) = %g, want %g", got, full)
		}
		// Any band can only increase the distance.
		for _, r := range []int{0, 1, 2, 5} {
			if got := BandDistance(s, q, seq.LInf, r); got < full-1e-9 {
				t.Fatalf("BandDistance(r=%d) = %g < unconstrained %g", r, got, full)
			}
		}
	}
}

func TestBandDistanceZeroWidthDiagonal(t *testing.T) {
	// r=0 on equal-length sequences is the element-wise distance.
	s := seq.Sequence{1, 2, 3}
	q := seq.Sequence{2, 2, 5}
	if got := BandDistance(s, q, seq.LInf, 0); got != 2 {
		t.Errorf("BandDistance(r=0) = %g, want 2", got)
	}
	if got := BandDistance(s, q, seq.L1, 0); got != 3 {
		t.Errorf("BandDistance L1 (r=0) = %g, want 3", got)
	}
}

func TestBandDistanceEmpty(t *testing.T) {
	if got := BandDistance(nil, nil, seq.LInf, 2); got != 0 {
		t.Errorf("BandDistance(<>, <>) = %g", got)
	}
	if got := BandDistance(seq.Sequence{1}, nil, seq.LInf, 2); !math.IsInf(got, 1) {
		t.Errorf("BandDistance(S, <>) = %g", got)
	}
}

// Property (quick): DP distance equals the recursive reference.
func TestDistanceQuick(t *testing.T) {
	f := func(sv, qv []float64) bool {
		if len(sv) == 0 || len(qv) == 0 {
			return true
		}
		if len(sv) > 10 {
			sv = sv[:10]
		}
		if len(qv) > 10 {
			qv = qv[:10]
		}
		s, q := seq.Sequence(sv), seq.Sequence(qv)
		for _, v := range append(append([]float64{}, sv...), qv...) {
			if math.IsNaN(v) || math.Abs(v) > 1e150 {
				return true // avoid overflow in element differences
			}
		}
		return math.Abs(Distance(s, q, seq.LInf)-refDistance(s, q, seq.LInf)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestNormalizedDistance(t *testing.T) {
	s := seq.Sequence{1, 2, 3}
	q := seq.Sequence{1, 2, 3}
	if got := NormalizedDistance(s, q, seq.L1); got != 0 {
		t.Errorf("identical normalized = %g", got)
	}
	// LInf passes through unchanged.
	a := seq.Sequence{0, 5}
	b := seq.Sequence{0, 6}
	if got, want := NormalizedDistance(a, b, seq.LInf), Distance(a, b, seq.LInf); got != want {
		t.Errorf("Linf normalized %g != raw %g", got, want)
	}
	// Replicating both sequences leaves the normalized L1 distance roughly
	// stable while the raw distance grows with length.
	long := make(seq.Sequence, 0, 20)
	longQ := make(seq.Sequence, 0, 20)
	for i := 0; i < 10; i++ {
		long = append(long, 1, 1)
		longQ = append(longQ, 2, 2)
	}
	short := seq.Sequence{1, 1}
	shortQ := seq.Sequence{2, 2}
	rawShort := Distance(short, shortQ, seq.L1)
	rawLong := Distance(long, longQ, seq.L1)
	if rawLong <= rawShort {
		t.Fatalf("raw L1 did not grow with length: %g vs %g", rawLong, rawShort)
	}
	nShort := NormalizedDistance(short, shortQ, seq.L1)
	nLong := NormalizedDistance(long, longQ, seq.L1)
	if math.Abs(nShort-nLong) > 1e-9 {
		t.Errorf("normalized L1 not length-stable: %g vs %g", nShort, nLong)
	}
	// Empty handling mirrors Distance.
	if got := NormalizedDistance(nil, nil, seq.L1); got != 0 {
		t.Errorf("empty normalized = %g", got)
	}
}
