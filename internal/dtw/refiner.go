package dtw

import "repro/internal/seq"

// Verdict classifies the outcome of Refiner.DistanceWithin.
type Verdict int

const (
	// VerdictPruned means Dtw(s,q) > epsilon. The alive interval of a DP
	// row emptied (or a corner cell already exceeded epsilon), so no exact
	// distance was completed; a reject costs only the interval's cells.
	VerdictPruned Verdict = iota
	// VerdictWithin means Dtw(s,q) ≤ epsilon; the returned distance is exact
	// (bit-identical to DistanceWithin).
	VerdictWithin
	// VerdictAbandoned is never returned. It is kept only so the benchmark
	// harness's in-process twin (perfbench/mirror.go), which switches on it,
	// keeps compiling.
	VerdictAbandoned
)

// Refiner is DistanceWithin with its outcome reported as a Verdict, so a
// caller can count rejects apart from completed distances. It holds no
// state: AcquireRefiner and Release remain for the callers that pool one
// per query.
type Refiner struct{}

// AcquireRefiner returns a Refiner.
func AcquireRefiner() *Refiner { return &Refiner{} }

// Release is a no-op.
func (*Refiner) Release() {}

// DistanceWithin returns (d, VerdictWithin) with the exact distance d when
// DistanceWithin(s, q, base, epsilon) holds, else (+Inf, VerdictPruned).
func (*Refiner) DistanceWithin(s, q seq.Sequence, base seq.Base, epsilon float64) (float64, Verdict) {
	if d, ok := DistanceWithin(s, q, base, epsilon); ok {
		return d, VerdictWithin
	}
	return Inf, VerdictPruned
}
