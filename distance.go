package twsim

import (
	"repro/internal/dtw"
	"repro/internal/seq"
)

// Distance computes the exact time warping distance between two sequences
// of arbitrary lengths under the given base distance (the paper's
// Definition 1/2) in O(len(s)·len(q)) time and O(min) memory. Every
// warping path visits every element, so if either sequence holds a NaN or
// ±Inf element no path has a finite cost and the result is +Inf.
func Distance(s, q []float64, base Base) float64 {
	return dtw.Distance(seq.Sequence(s), seq.Sequence(q), base)
}

// DistanceWithin computes the time warping distance but abandons early once
// the result provably exceeds epsilon, returning ok=false in that case.
// If either sequence holds a NaN or ±Inf element, the result is
// (+Inf, false) for every finite epsilon, agreeing with Distance's +Inf.
func DistanceWithin(s, q []float64, base Base, epsilon float64) (d float64, ok bool) {
	return dtw.DistanceWithin(seq.Sequence(s), seq.Sequence(q), base, epsilon)
}

// BandDistance computes the time warping distance restricted to a
// slope-normalized Sakoe–Chiba band of half-width r (r < 0 disables the
// band). A band constrains warping, so the result is ≥ Distance. Like
// Distance it is +Inf if either sequence holds a NaN or ±Inf element.
func BandDistance(s, q []float64, base Base, r int) float64 {
	return dtw.BandDistance(seq.Sequence(s), seq.Sequence(q), base, r)
}

// NormalizedDistance returns the time warping distance divided by the
// optimal warping path length for additive bases (making tolerances
// comparable across lengths); for BaseLInf the distance is already
// length-independent and is returned unchanged.
func NormalizedDistance(s, q []float64, base Base) float64 {
	return dtw.NormalizedDistance(seq.Sequence(s), seq.Sequence(q), base)
}

// ItakuraDistance computes the time warping distance restricted to the
// Itakura parallelogram (global path slope within [1/2, 2]). The result is
// ≥ Distance and +Inf when the length ratio admits no legal path.
func ItakuraDistance(s, q []float64, base Base) float64 {
	return dtw.ItakuraDistance(seq.Sequence(s), seq.Sequence(q), base)
}

// WarpingPath returns the exact time warping distance together with one
// optimal warping path as (i, j) element-mapping pairs. If either sequence
// holds a NaN or ±Inf element, no path has a finite cost: the result is
// +Inf with an empty path.
func WarpingPath(s, q []float64, base Base) (float64, []PathStep) {
	d, p := dtw.DistancePath(seq.Sequence(s), seq.Sequence(q), base)
	out := make([]PathStep, len(p))
	for i, st := range p {
		out[i] = PathStep{I: st.I, J: st.J}
	}
	return d, out
}

// PathStep is one element mapping of a warping path: element I of s matched
// with element J of q.
type PathStep struct {
	I, J int
}

// LowerBound computes the paper's Dtw-lb (Definition 3, known as LB_Kim):
// the L∞ distance between the two 4-tuple feature vectors. It never exceeds
// Distance(s, q, BaseLInf) and satisfies the triangular inequality.
func LowerBound(s, q []float64) float64 {
	return dtw.LBKim(seq.Sequence(s), seq.Sequence(q))
}

// LowerBoundYi computes Yi et al.'s O(len(s)+len(q)) scan-time lower bound
// of the time warping distance (the filter of the LB-Scan baseline).
func LowerBoundYi(s, q []float64, base Base) float64 {
	return dtw.LBYi(seq.Sequence(s), seq.Sequence(q), base)
}

// Feature extracts the paper's time-warping-invariant 4-tuple
// (First, Last, Greatest, Smallest) from a non-empty sequence.
func Feature(s []float64) (first, last, greatest, smallest float64, err error) {
	f, err := seq.ExtractFeature(seq.Sequence(s))
	if err != nil {
		return 0, 0, 0, 0, err
	}
	return f.First, f.Last, f.Greatest, f.Smallest, nil
}
