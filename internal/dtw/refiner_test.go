package dtw

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/seq"
)

var cascadeBases = []seq.Base{seq.LInf, seq.L1, seq.L2Sq}

// TestKernelsMatchGeneric pins Distance and DistanceWithin to the dense
// oracles bit for bit, across random mixed-length pairs in both argument
// orders: the dense unconstrained DP for values and verdicts, and the
// paper's recursive definition (refDistance) for the verdict at cutoffs
// straddling the distance.
func TestKernelsMatchGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, base := range cascadeBases {
		for trial := 0; trial < 300; trial++ {
			s := randSeq(rng, 40)
			q := randSeq(rng, 40)
			want := bandDistanceDense(s, q, base, -1)
			for _, p := range [][2]seq.Sequence{{s, q}, {q, s}} {
				if got := Distance(p[0], p[1], base); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("base %v: Distance=%v dense=%v", base, got, want)
				}
			}
			d := refDistance(s, q, base)
			if math.Abs(d-want) > 1e-9*math.Max(1, d) {
				t.Fatalf("base %v: dense DP %v, recursive definition %v", base, want, d)
			}
			for _, eps := range []float64{d * 0.5, d * 0.99, d, d * 1.01, d * 2, rng.Float64() * 10} {
				wd, wok := bandDistanceWithinDense(s, q, base, -1, eps)
				gd, gok := DistanceWithin(s, q, base, eps)
				if gok != wok || math.Float64bits(gd) != math.Float64bits(wd) {
					t.Fatalf("base %v eps=%v: DistanceWithin (%v, %v), dense (%v, %v)", base, eps, gd, gok, wd, wok)
				}
			}
		}
	}
}

// TestRefinerMatchesDistanceWithin is the refine-tier oracle: across all
// bases and random mixed-length pairs, the Refiner's verdict must agree
// with DistanceWithin, and an in-tolerance distance must be bit-identical.
func TestRefinerMatchesDistanceWithin(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	r := AcquireRefiner()
	defer r.Release()
	for _, base := range cascadeBases {
		for trial := 0; trial < 400; trial++ {
			s := randSeq(rng, 48)
			q := randSeq(rng, 48)
			d := Distance(s, q, base)
			for _, eps := range []float64{-1, 0, d * 0.5, d * 0.99, d, d * 1.01, d * 2, rng.Float64() * 12} {
				wd, wok := DistanceWithin(s, q, base, eps)
				rd, verdict := r.DistanceWithin(s, q, base, eps)
				if wok != (verdict == VerdictWithin) {
					t.Fatalf("base %v eps=%v |s|=%d |q|=%d: refiner verdict %d, DistanceWithin ok=%v",
						base, eps, len(s), len(q), verdict, wok)
				}
				if wok && math.Float64bits(rd) != math.Float64bits(wd) {
					t.Fatalf("base %v eps=%v: refiner d=%v DistanceWithin d=%v", base, eps, rd, wd)
				}
				if base == seq.LInf && verdict == VerdictAbandoned && len(s) > 0 && len(q) > 0 {
					// For L∞ the corridor decision is exact, so a survivor
					// can never abandon.
					t.Fatalf("LInf corridor let an over-epsilon candidate through: eps=%v d=%v", eps, d)
				}
			}
		}
	}
}

func TestRefinerEdgeCases(t *testing.T) {
	r := AcquireRefiner()
	defer r.Release()
	empty := seq.Sequence{}
	one := seq.Sequence{1}
	if d, v := r.DistanceWithin(empty, empty, seq.LInf, 0); v != VerdictWithin || d != 0 {
		t.Fatalf("empty/empty: got (%v, %d)", d, v)
	}
	if _, v := r.DistanceWithin(empty, empty, seq.LInf, -1); v != VerdictPruned {
		t.Fatalf("empty/empty negative eps: got verdict %d", v)
	}
	if _, v := r.DistanceWithin(empty, one, seq.LInf, 100); v != VerdictPruned {
		t.Fatalf("empty/one: got verdict %d", v)
	}
	if _, v := r.DistanceWithin(one, one, seq.L1, -0.5); v != VerdictPruned {
		t.Fatalf("negative eps: got verdict %d", v)
	}
	if d, v := r.DistanceWithin(one, seq.Sequence{1, 1, 1}, seq.L2Sq, 0); v != VerdictWithin || d != 0 {
		t.Fatalf("exact zero-distance pair: got (%v, %d)", d, v)
	}
}

// TestLBKeoghSafeSoundness: the safe bound never exceeds the unconstrained
// distance, for any base and any length combination — so pruning on it can
// never falsely dismiss.
func TestLBKeoghSafeSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, base := range cascadeBases {
		for trial := 0; trial < 400; trial++ {
			s := randSeq(rng, 40)
			q := randSeq(rng, 40)
			env := GlobalEnvelope(q)
			lb, err := LBKeoghSafe(s, env, base, -1)
			if err != nil {
				t.Fatalf("global envelope must always be sound: %v", err)
			}
			d := Distance(s, q, base)
			if lb > d {
				t.Fatalf("base %v |s|=%d |q|=%d: LBKeoghSafe=%v > Dtw=%v", base, len(s), len(q), lb, d)
			}
			// A banded (non-global) envelope is not sound for the
			// unconstrained distance: the guard must refuse it loudly.
			banded := NewEnvelope(q, 2)
			if got, err := LBKeoghSafe(s, banded, base, -1); err != ErrUnsoundBound || got != 0 {
				t.Fatalf("banded envelope for unconstrained query: got (%v, %v), want (0, ErrUnsoundBound)", got, err)
			}
		}
	}
}

// TestLBKeoghBandedUnsoundForUnconstrained documents why the guard exists:
// the classic banded LB_Keogh can exceed the unconstrained distance, so
// using it as a prune for the paper's Dtw would falsely dismiss.
func TestLBKeoghBandedUnsoundForUnconstrained(t *testing.T) {
	s := seq.Sequence{0, 0, 0, 0, 0, 0, 0, 5}
	q := seq.Sequence{0, 5, 5, 5, 5, 5, 5, 5}
	if d := Distance(s, q, seq.LInf); d != 0 {
		t.Fatalf("warp-equivalent pair should have Dtw 0, got %v", d)
	}
	env := NewEnvelope(q, 1)
	if lb := LBKeogh(s, env, seq.LInf); lb <= 0 {
		t.Skipf("expected the banded bound to overshoot here, got %v", lb)
	}
	// The same pair through the safe path: no false dismissal possible.
	if lb, err := LBKeoghSafe(s, GlobalEnvelope(q), seq.LInf, -1); err != nil || lb > 0 {
		t.Fatalf("LBKeoghSafe overshot a zero-distance pair: (%v, %v)", lb, err)
	}
	if lb, err := LBKeoghSafe(s, env, seq.LInf, -1); err != ErrUnsoundBound || lb != 0 {
		t.Fatalf("banded envelope for unconstrained query must error, got (%v, %v)", lb, err)
	}
}

// TestGlobalEnvelopeMatchesYiSide: the full-envelope Keogh bound is exactly
// the S-side of LBYi, which is what lets the cascade split Yi's bound into
// two passes without changing any value.
func TestGlobalEnvelopeMatchesYiSide(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, base := range cascadeBases {
		for trial := 0; trial < 200; trial++ {
			s := randSeq(rng, 32)
			q := randSeq(rng, 32)
			env := GlobalEnvelope(q)
			kS, err := LBKeoghSafe(s, env, base, -1)
			if err != nil {
				t.Fatalf("global envelope must always be sound: %v", err)
			}
			yi := LBYi(s, q, base)
			if kS > yi {
				t.Fatalf("base %v: S-side %v exceeds two-sided LBYi %v", base, kS, yi)
			}
		}
	}
}

func warmPools(s, q seq.Sequence) {
	// First calls grow the pooled DP rows.
	for i := 0; i < 4; i++ {
		Distance(s, q, seq.LInf)
		DistanceWithin(s, q, seq.L1, 1)
		r := AcquireRefiner()
		r.DistanceWithin(s, q, seq.L2Sq, 1)
		r.Release()
	}
}

// TestDistanceWithinZeroAllocs: the steady-state kernel path must not
// allocate for sequences up to the pooled row capacity.
func TestDistanceWithinZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes pool operations allocate")
	}
	rng := rand.New(rand.NewSource(41))
	s := randSeq(rng, 1)
	q := randSeq(rng, 1)
	s = append(s[:0], make([]float64, 512)...)
	q = append(q[:0], make([]float64, 512)...)
	for i := range s {
		s[i] = rng.Float64()
	}
	for i := range q {
		q[i] = rng.Float64()
	}
	warmPools(s, q)
	for _, base := range cascadeBases {
		base := base
		if n := testing.AllocsPerRun(100, func() {
			DistanceWithin(s, q, base, 0.35)
			Distance(s, q, base)
		}); n != 0 {
			t.Fatalf("base %v: %v allocs/op in steady state", base, n)
		}
	}
}

// TestRefinerZeroAllocs: a warmed Refiner must evaluate candidates without
// allocating — a caller holds one per query across all candidates.
func TestRefinerZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes pool operations allocate")
	}
	rng := rand.New(rand.NewSource(43))
	s := make(seq.Sequence, 512)
	q := make(seq.Sequence, 512)
	for i := range s {
		s[i] = rng.Float64()
	}
	for i := range q {
		q[i] = rng.Float64()
	}
	warmPools(s, q)
	r := AcquireRefiner()
	defer r.Release()
	for _, base := range cascadeBases {
		base := base
		r.DistanceWithin(s, q, base, 0.35)
		if n := testing.AllocsPerRun(100, func() {
			r.DistanceWithin(s, q, base, 0.35)
		}); n != 0 {
			t.Fatalf("base %v: %v allocs/op in steady state", base, n)
		}
	}
}
