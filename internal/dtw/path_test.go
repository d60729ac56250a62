package dtw

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/seq"
)

func TestDistancePathMatchesDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, base := range []seq.Base{seq.LInf, seq.L1, seq.L2Sq} {
		for trial := 0; trial < 200; trial++ {
			s := randSeq(rng, 12)
			q := randSeq(rng, 12)
			d, p := DistancePath(s, q, base)
			if want := Distance(s, q, base); math.Abs(d-want) > 1e-9 {
				t.Fatalf("base %v: DistancePath=%g, Distance=%g", base, d, want)
			}
			if !p.Valid(len(s), len(q)) {
				t.Fatalf("invalid path %v for lens (%d, %d)", p, len(s), len(q))
			}
			if cost := p.Cost(s, q, base); math.Abs(cost-d) > 1e-9 {
				t.Fatalf("base %v: path cost %g != distance %g (path %v)", base, cost, d, p)
			}
		}
	}
}

func TestDistancePathEmpty(t *testing.T) {
	d, p := DistancePath(nil, nil, seq.LInf)
	if d != 0 || p != nil {
		t.Errorf("empty-empty = (%g, %v)", d, p)
	}
	d, p = DistancePath(seq.Sequence{1}, nil, seq.LInf)
	if !math.IsInf(d, 1) || p != nil {
		t.Errorf("S-empty = (%g, %v)", d, p)
	}
}

func TestPathValid(t *testing.T) {
	good := Path{{0, 0}, {1, 0}, {1, 1}, {2, 2}}
	if !good.Valid(3, 3) {
		t.Error("good path rejected")
	}
	cases := []struct {
		name string
		p    Path
	}{
		{"wrong start", Path{{1, 0}, {2, 2}}},
		{"wrong end", Path{{0, 0}, {1, 1}}},
		{"backward step", Path{{0, 0}, {1, 1}, {0, 2}, {2, 2}}},
		{"jump", Path{{0, 0}, {2, 2}}},
		{"stall", Path{{0, 0}, {0, 0}, {2, 2}}},
	}
	for _, c := range cases {
		if c.p.Valid(3, 3) {
			t.Errorf("%s accepted: %v", c.name, c.p)
		}
	}
	if !(Path{}).Valid(0, 0) {
		t.Error("empty path for empty sequences rejected")
	}
	if (Path{}).Valid(1, 0) {
		t.Error("empty path accepted for non-empty sequence")
	}
}

func TestPathCostEmpty(t *testing.T) {
	if got := (Path{}).Cost(nil, nil, seq.L1); got != 0 {
		t.Errorf("empty path cost = %g", got)
	}
}

func TestPathString(t *testing.T) {
	p := Path{{0, 0}, {1, 1}}
	if got := p.String(); got != "(0,0)(1,1)" {
		t.Errorf("String = %q", got)
	}
}

func TestPathCoversPaperExample(t *testing.T) {
	s := seq.Sequence{20, 21, 21, 20, 20, 23, 23, 23}
	q := seq.Sequence{20, 20, 21, 20, 23}
	d, p := DistancePath(s, q, seq.LInf)
	if d != 0 {
		t.Fatalf("distance = %g, want 0", d)
	}
	for _, st := range p {
		if s[st.I] != q[st.J] {
			t.Fatalf("zero-cost path maps %g to %g at %v", s[st.I], q[st.J], st)
		}
	}
}

// TestDistancePathNonFinite: with a NaN or infinite element no path has a
// finite cost, so DistancePath reports (+Inf, nil) like Distance. Its
// backtrack once found no predecessor below +Inf there and looped forever,
// growing the path without bound.
func TestDistancePathNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for pos := 0; pos < 3; pos++ {
			s, q := seq.Sequence{0, 1, 2}, seq.Sequence{0, 1, 1, 2}
			s[pos] = v
			for _, base := range []seq.Base{seq.LInf, seq.L1, seq.L2Sq} {
				for _, p := range [][2]seq.Sequence{{s, q}, {q, s}} {
					if d, path := DistancePath(p[0], p[1], base); !math.IsInf(d, 1) || path != nil {
						t.Fatalf("DistancePath(%v, %v, %v) = (%v, %v), want (+Inf, nil)", p[0], p[1], base, d, path)
					}
				}
			}
		}
	}
}
