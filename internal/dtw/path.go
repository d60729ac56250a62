package dtw

import (
	"fmt"

	"repro/internal/seq"
)

// Step is one element mapping m_h = (i, j) of a warping path: element i of S
// matched with element j of Q (0-based indices).
type Step struct {
	I, J int
}

// Path is a complete warping path: a monotone sequence of element mappings
// from (0,0) to (|S|-1, |Q|-1) where each step advances i, j, or both by one.
type Path []Step

// Valid reports whether p is a legal warping path for sequences of the given
// lengths.
func (p Path) Valid(lenS, lenQ int) bool {
	if len(p) == 0 {
		return lenS == 0 && lenQ == 0
	}
	if p[0] != (Step{0, 0}) || p[len(p)-1] != (Step{lenS - 1, lenQ - 1}) {
		return false
	}
	for k := 1; k < len(p); k++ {
		di := p[k].I - p[k-1].I
		dj := p[k].J - p[k-1].J
		if di < 0 || dj < 0 || di > 1 || dj > 1 || (di == 0 && dj == 0) {
			return false
		}
	}
	return true
}

// Cost evaluates the warping cost of path p between s and q under base:
// max of element costs for LInf, their sum otherwise.
func (p Path) Cost(s, q seq.Sequence, base seq.Base) float64 {
	if len(p) == 0 {
		return 0
	}
	acc := base.Elem(s[p[0].I], q[p[0].J])
	for _, st := range p[1:] {
		acc = base.Combine(base.Elem(s[st.I], q[st.J]), acc)
	}
	return acc
}

// String renders the path compactly, e.g. "(0,0)(1,0)(2,1)".
func (p Path) String() string {
	out := make([]byte, 0, len(p)*6)
	for _, st := range p {
		out = fmt.Appendf(out, "(%d,%d)", st.I, st.J)
	}
	return string(out)
}

// DistancePath computes the exact time warping distance together with one
// optimal warping path. It keeps the full O(|S|·|Q|) DP matrix, so prefer
// Distance when the path itself is not needed. When no path has a finite
// cost, as with a NaN or infinite element, it returns (+Inf, nil) like
// Distance's +Inf.
func DistancePath(s, q seq.Sequence, base seq.Base) (float64, Path) {
	switch {
	case s.Empty() && q.Empty():
		return 0, nil
	case s.Empty() || q.Empty():
		return Inf, nil
	}
	n, m := len(s), len(q)
	d := make([]float64, n*m)
	at := func(i, j int) float64 { return d[i*m+j] }
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			e := base.Elem(s[i], q[j])
			switch {
			case i == 0 && j == 0:
				d[i*m+j] = e
			case i == 0:
				d[i*m+j] = base.Combine(e, at(0, j-1))
			case j == 0:
				d[i*m+j] = base.Combine(e, at(i-1, 0))
			default:
				best := at(i-1, j)
				if v := at(i, j-1); v < best {
					best = v
				}
				if v := at(i-1, j-1); v < best {
					best = v
				}
				d[i*m+j] = base.Combine(e, best)
			}
		}
	}
	if !(at(n-1, m-1) < Inf) {
		// NaN or +Inf: a step of the backtrack below may find no
		// predecessor below +Inf and never move.
		return Inf, nil
	}
	// Backtrack greedily toward the smallest predecessor.
	path := make(Path, 0, n+m)
	i, j := n-1, m-1
	for {
		path = append(path, Step{i, j})
		if i == 0 && j == 0 {
			break
		}
		bi, bj := i, j
		best := Inf
		if i > 0 && at(i-1, j) < best {
			best, bi, bj = at(i-1, j), i-1, j
		}
		if j > 0 && at(i, j-1) < best {
			best, bi, bj = at(i, j-1), i, j-1
		}
		if i > 0 && j > 0 && at(i-1, j-1) <= best {
			bi, bj = i-1, j-1
		}
		i, j = bi, bj
	}
	// Reverse into forward order.
	for a, b := 0, len(path)-1; a < b; a, b = a+1, b-1 {
		path[a], path[b] = path[b], path[a]
	}
	return at(n-1, m-1), path
}
