package dtw

// Regression tests for the band-gap bug: with very different sequence
// lengths the slope-normalized Sakoe–Chiba band used to produce disjoint
// row ranges (consecutive row centers advance by ⌈slope⌉ > 2r+1 columns),
// so no banded warping path existed and BandDistance returned a spurious
// +Inf. The fix floors the effective half-width so consecutive ranges
// always connect.

import (
	"math"
	"testing"

	"repro/internal/seq"
)

func ramp(n int) seq.Sequence {
	s := make(seq.Sequence, n)
	for i := range s {
		s[i] = float64(i)
	}
	return s
}

// BandDistance must be finite for every non-empty pair and every r ≥ 0 —
// in particular for steep slopes like |S|=2 vs |Q|=10 that used to yield
// disjoint band rows — and agree bit for bit with the dense banded DP
// (bandDistanceDense), which carries the same half-width floor.
func TestBandDistanceFiniteForSteepSlopes(t *testing.T) {
	for _, base := range []seq.Base{seq.LInf, seq.L1, seq.L2Sq} {
		for n := 1; n <= 10; n++ {
			for m := 1; m <= 10; m++ {
				for r := 0; r <= 3; r++ {
					d := BandDistance(ramp(n), ramp(m), base, r)
					if math.IsInf(d, 1) {
						t.Fatalf("BandDistance(|s|=%d, |q|=%d, %v, r=%d) = +Inf", n, m, base, r)
					}
					if want := bandDistanceDense(ramp(n), ramp(m), base, r); math.Float64bits(d) != math.Float64bits(want) {
						t.Fatalf("BandDistance(|s|=%d, |q|=%d, %v, r=%d) = %g, dense %g", n, m, base, r, d, want)
					}
					if got, ok := BandDistanceWithin(ramp(n), ramp(m), base, r, d); !ok || got != d {
						t.Fatalf("BandDistanceWithin(|s|=%d, |q|=%d, %v, r=%d, eps=%g) = (%g, %v)", n, m, base, r, d, got, ok)
					}
					// A band constrains warpings, so the result can never
					// drop below the unconstrained distance.
					if full := Distance(ramp(n), ramp(m), base); d < full-1e-9 {
						t.Fatalf("BandDistance(|s|=%d, |q|=%d, %v, r=%d) = %g below unconstrained %g",
							n, m, base, r, d, full)
					}
				}
			}
		}
	}
}

// The original failure shape from the bug report: a short query against a
// long sequence with a narrow band.
func TestBandDistanceShortVsLong(t *testing.T) {
	s := seq.Sequence{0, 9}
	q := ramp(10)
	for r := 0; r <= 2; r++ {
		if d := BandDistance(s, q, seq.LInf, r); math.IsInf(d, 1) || d != bandDistanceDense(s, q, seq.LInf, r) {
			t.Fatalf("r=%d: %g for 2-vs-10 sequences, dense %g", r, d, bandDistanceDense(s, q, seq.LInf, r))
		}
		// Symmetric orientation.
		if d := BandDistance(q, s, seq.LInf, r); math.IsInf(d, 1) || d != bandDistanceDense(q, s, seq.LInf, r) {
			t.Fatalf("r=%d: %g for 10-vs-2 sequences, dense %g", r, d, bandDistanceDense(q, s, seq.LInf, r))
		}
	}
}

// A band wide enough to cover the whole matrix must agree exactly with the
// unconstrained distance.
func TestBandDistanceWideBandMatchesDistance(t *testing.T) {
	pairs := [][2]seq.Sequence{
		{{4, 5, 6, 7, 6}, {4, 4, 6, 6, 6, 7, 7}},
		{{1, 2}, ramp(9)},
		{ramp(12), {3, 1, 4}},
		{{2, 2, 2}, {2, 2, 2}},
	}
	for _, base := range []seq.Base{seq.LInf, seq.L1} {
		for _, p := range pairs {
			s, q := p[0], p[1]
			r := len(s) + len(q) // covers everything
			got := BandDistance(s, q, base, r)
			want := Distance(s, q, base)
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("BandDistance(%v, %v, %v, r=%d) = %g, want %g", s, q, base, r, got, want)
			}
		}
	}
}

// Single-element sequences bypass the band entirely: every warping path
// must traverse the whole other sequence.
func TestBandDistanceSingleton(t *testing.T) {
	s := seq.Sequence{5}
	q := seq.Sequence{3, 4, 5, 6}
	for r := 0; r <= 2; r++ {
		got := BandDistance(s, q, seq.LInf, r)
		want := Distance(s, q, seq.LInf)
		if got != want {
			t.Fatalf("r=%d: BandDistance = %g, want %g", r, got, want)
		}
	}
}

// NewEnvelope must tolerate degenerate half-widths instead of panicking or
// producing inverted windows.
func TestNewEnvelopeDegenerateR(t *testing.T) {
	q := seq.Sequence{3, 1, 4, 1, 5}
	neg := NewEnvelope(q, -3)
	zero := NewEnvelope(q, 0)
	for i := range q {
		if neg.Lower[i] != q[i] || neg.Upper[i] != q[i] {
			t.Fatalf("NewEnvelope(q, -3) at %d = [%g, %g], want degenerate [%g, %g]",
				i, neg.Lower[i], neg.Upper[i], q[i], q[i])
		}
		if zero.Lower[i] != q[i] || zero.Upper[i] != q[i] {
			t.Fatalf("NewEnvelope(q, 0) at %d not degenerate", i)
		}
	}
	// r beyond the sequence length clamps to the full range.
	wide := NewEnvelope(q, len(q)+10)
	min, max := q.MinMax()
	for i := range q {
		if wide.Lower[i] != min || wide.Upper[i] != max {
			t.Fatalf("NewEnvelope(q, big) at %d = [%g, %g], want [%g, %g]",
				i, wide.Lower[i], wide.Upper[i], min, max)
		}
	}
	// Empty query: no panic, empty envelope.
	empty := NewEnvelope(nil, -1)
	if len(empty.Lower) != 0 || len(empty.Upper) != 0 {
		t.Fatal("NewEnvelope(nil, -1) returned non-empty envelope")
	}
}
