// Package dtw implements the time warping distance of the paper
// (Definitions 1 and 2) with a dynamic program, an early-abandoning variant
// driven by a search tolerance, warping path recovery, a Sakoe–Chiba banded
// variant, and the family of lower-bound functions the evaluated methods
// rely on: Yi et al.'s scan-time bound (LB-Scan), the paper's Dtw-lb
// (LB_Kim), and LB_Keogh as a later-work extension.
//
// Conventions: every Distance-style function returns +Inf when either input
// is empty (Definition 1: Dtw(S, <>) = Dtw(<>, Q) = ∞) except for the pair
// of empty sequences, whose distance is 0.
package dtw

import (
	"math"

	"repro/internal/seq"
)

// Inf is the distance reported for undefined comparisons and by abandoned
// computations.
var Inf = math.Inf(1)

// Distance computes the exact time warping distance between s and q under
// the given base distance using the standard O(|S|·|Q|) dynamic program with
// O(min(|S|,|Q|)) memory.
//
// For base seq.LInf this is Definition 2: the cost of a warping path is the
// maximum element-pair difference along it, and the distance is the minimum
// over all paths. For seq.L1/seq.L2Sq costs accumulate additively
// (Definition 1).
//
// Every path visits every element of both sequences, so an input with a NaN
// or infinite element has distance +Inf: no path has a finite cost.
//
// The DP rows come from a sync.Pool (see kernel.go), so steady-state calls
// allocate nothing for sequences up to PooledRowCap.
func Distance(s, q seq.Sequence, base seq.Base) float64 {
	d, _ := BandDistanceWithin(s, q, base, -1, Inf)
	return d
}

// DistanceWithin computes the time warping distance but abandons as soon as
// it can prove the result exceeds epsilon, returning (+Inf, false) in that
// case. When the distance is within epsilon it returns (d, true) with the
// exact value d, bit-identical to Distance.
//
// Early abandoning exploits the DP's monotonicity: cell values never
// decrease along a path, so once every cell of a row exceeds epsilon no
// completion can come back under it. With the L∞ base this triggers
// especially early (§4.1: "the decisions happen each time the distance
// between any element pair exceeds a tolerance").
//
// An input with a NaN or infinite element is never within a finite
// epsilon: the result is (+Inf, false), agreeing with Distance's +Inf.
func DistanceWithin(s, q seq.Sequence, base seq.Base, epsilon float64) (float64, bool) {
	return BandDistanceWithin(s, q, base, -1, epsilon)
}

// BandDistance computes the time warping distance restricted to a
// Sakoe–Chiba band of half-width r around the diagonal: cell (i,j) is only
// reachable when |i·|Q|/|S| − j| ≤ r after slope normalization. r < 0 means
// no band (identical to Distance). A band is an *extension* relative to the
// paper — it constrains permissible warpings and therefore returns a value
// ≥ the unconstrained distance.
//
// The effective half-width is never allowed below ⌈⌈slope⌉−1⌉/2: when the
// lengths are very different (steep slope) consecutive rows' band ranges
// would otherwise be disjoint and no banded path would exist at all.
// With that floor a banded path always exists, so BandDistance is finite
// for any r ≥ 0 whenever both sequences are non-empty and finite. Like
// Distance, it is +Inf for an input with a NaN or infinite element.
func BandDistance(s, q seq.Sequence, base seq.Base, r int) float64 {
	d, _ := BandDistanceWithin(s, q, base, r, Inf)
	return d
}

// BandDistanceWithin is BandDistance with early abandoning: it returns
// (d, true) with the exact banded distance when d ≤ epsilon and (+Inf,
// false) as soon as no cell of a band row is within epsilon (cell values
// never decrease along a path, so no completion can come back under it).
// r < 0 is the unconstrained DistanceWithin. Every distance in the package
// but DistancePath runs through here, or, for ItakuraDistance, straight
// into bandKernel.
func BandDistanceWithin(s, q seq.Sequence, base seq.Base, r int, epsilon float64) (float64, bool) {
	switch {
	case s.Empty() && q.Empty():
		return 0, 0 <= epsilon
	case s.Empty() || q.Empty():
		return Inf, false
	}
	if epsilon < 0 {
		return Inf, false
	}
	// O(1) pre-check: the corner cells lie on every path, banded or not.
	if base.Elem(s[0], q[0]) > epsilon || base.Elem(s[len(s)-1], q[len(q)-1]) > epsilon {
		return Inf, false
	}
	n, m := len(s), len(q)
	if r < 0 || n == 1 || m == 1 {
		// Unconstrained; a single row (or column) must traverse the whole
		// other sequence, so no band can constrain it. The distance is
		// symmetric, so rows run along the shorter sequence.
		if m > n {
			s, q, m = q, s, n
		}
		return bandKernel(s, q, base, func(int) (int, int) { return 0, m - 1 }, epsilon)
	}
	// Slope-normalize the band so corner cells stay reachable for unequal
	// lengths: the band follows the stretched diagonal j ≈ i·(m-1)/(n-1).
	slope := float64(m-1) / float64(n-1)
	// Consecutive row centers advance by up to ⌈slope⌉ columns; ranges of
	// half-width w connect (lo_i ≤ hi_{i-1}+1) iff that advance is ≤ 2w+1.
	// Widen r to the smallest w that guarantees it, ⌈(⌈slope⌉−1)/2⌉, which
	// is 0 for slope ≤ 1 (the classic equal-length band is untouched).
	if minHalf := int(math.Ceil(slope)) / 2; minHalf > r {
		r = minHalf
	}
	return bandKernel(s, q, base, func(i int) (int, int) { return bandRange(i, slope, r, m) }, epsilon)
}

// bandKernel is the one time warping DP of the package: (d, true) with the
// exact distance d when d ≤ cutoff, else (+Inf, false). rows(i) is row i's
// admissible column range [lo, hi]: [0, m-1] for the unconstrained
// distance, the Sakoe–Chiba band, or the Itakura parallelogram; cells
// outside it are unreachable. A cutoff of +Inf yields the plain distance.
//
// It visits only live cells. A cell is alive when its value is ≤ cutoff,
// and each row keeps the interval from its first to its last alive cell.
// Row i visits cells from max(lo_i, first alive) to one past the last
// alive (the diagonal step), then steps horizontally while cells stay
// alive; cells outside that span have no alive predecessor. Dead
// predecessors outside the interval stand in as +Inf, which is exact:
// values never decrease along a path (max-combine for seq.LInf,
// non-negative additions otherwise), so an alive cell's smallest
// predecessor is itself alive, and the values of alive cells — and the
// final distance — equal the dense DP's. Rows are never cleared: a row
// reads only its predecessor's interval, all of which that row wrote. A
// row with no alive cell ends the call, so a reject costs the alive
// interval's cells, not the whole matrix (Lemire's early-abandon rule).
//
// Per base, a cell is a branch-free |x−y| (squared for L2Sq) combined by
// max (L∞) or add with the minimum live predecessor, which is
// seq.Base.Elem/Combine for every Base value. Values equal the dense DP's
// bit for bit on inputs without negative zeros (math.Abs and the builtin
// min may turn a −0 the dense DP carries into +0). A NaN cell is never
// alive and the builtin min carries NaN on to every cell it feeds, so a
// NaN element kills its whole row (or column) and the call returns
// (+Inf, false) for every cutoff.
func bandKernel(s, q []float64, base seq.Base, rows func(i int) (lo, hi int), cutoff float64) (float64, bool) {
	n, m := len(s), len(q)
	lInf, squared := base == seq.LInf, base == seq.L2Sq
	cell := func(d, best float64) float64 { // d = s[i] - q[j]
		d = math.Abs(d)
		if squared {
			d *= d
		}
		if !lInf {
			return d + best
		}
		if best > d {
			return best
		}
		return d
	}
	rp := acquireRows(m)
	defer releaseRows(rp)
	prev, cur := rp.prev, rp.cur

	aLo, aHi := 0, -1 // the previous row's alive interval (none before row 0)
	for i := 0; i < n; i++ {
		si := s[i]
		lo, hi := rows(i)
		j := max(lo, aLo)
		if j > min(hi, aHi+1) {
			return Inf, false // beyond aHi+1 only a horizontal predecessor
		}
		first := j
		left, diag := Inf, Inf // cur[j-1] and prev[j-1] as predecessors
		if i == 0 {
			diag = 0 // the DP's boundary cell before (0,0)
		} else if j > aLo {
			diag = prev[j-1]
		}
		// Cells with a vertical predecessor in the previous interval.
		for end := min(hi, aHi); j <= end; j++ {
			up := prev[j]
			left = cell(si-q[j], min(left, min(up, diag)))
			cur[j] = left
			diag = up
		}
		// Past it: the diagonal step off its last cell, then horizontal
		// steps while cells stay alive.
		for ; j <= hi; j++ {
			best := min(left, diag)
			if !(best <= cutoff) {
				break
			}
			left = cell(si-q[j], best)
			cur[j] = left
			diag = Inf
		}
		// Trim the visited span [first, j) to its alive interval.
		for first < j && !(cur[first] <= cutoff) {
			first++
		}
		if first == j {
			return Inf, false
		}
		last := j - 1
		for !(cur[last] <= cutoff) {
			last--
		}
		aLo, aHi = first, last
		prev, cur = cur, prev
	}
	if aHi != m-1 {
		return Inf, false
	}
	return prev[m-1], true
}

func bandRange(i int, slope float64, r, m int) (lo, hi int) {
	center := int(math.Round(float64(i) * slope))
	lo, hi = center-r, center+r
	if lo < 0 {
		lo = 0
	}
	if hi > m-1 {
		hi = m - 1
	}
	return lo, hi
}

// NormalizedDistance returns the time warping distance divided by the
// length of an optimal warping path — the classical per-step normalization
// for additive bases, which makes tolerances comparable across sequence
// lengths without switching to the L∞ base. For seq.LInf the distance is
// already length-independent (the paper's §4.1 argument) and is returned
// unchanged.
func NormalizedDistance(s, q seq.Sequence, base seq.Base) float64 {
	if base == seq.LInf {
		return Distance(s, q, base)
	}
	d, path := DistancePath(s, q, base)
	if len(path) == 0 {
		return d
	}
	return d / float64(len(path))
}
