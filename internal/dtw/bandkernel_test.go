package dtw

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/seq"
	"repro/internal/synth"
)

// bandDistanceDense and bandDistanceWithinDense are the dense banded DP,
// the independent oracle for bandKernel: every row is cleared to +Inf over
// all m columns and each band cell goes through seq.Base.Elem/Combine, so
// they share no cell code with the kernel.
func bandDistanceDense(s, q seq.Sequence, base seq.Base, r int) float64 {
	if r < 0 {
		return Distance(s, q, base)
	}
	switch {
	case s.Empty() && q.Empty():
		return 0
	case s.Empty() || q.Empty():
		return Inf
	}
	n, m := len(s), len(q)
	if n == 1 || m == 1 {
		// A single row (or column) must traverse the whole other sequence;
		// no band can constrain it.
		return Distance(s, q, base)
	}
	// Slope-normalize the band so corner cells stay reachable for unequal
	// lengths: the band follows the stretched diagonal j ≈ i·(m-1)/(n-1).
	slope := float64(m-1) / float64(n-1)
	// Consecutive row centers advance by up to ⌈slope⌉ columns; ranges of
	// half-width w connect (lo_i ≤ hi_{i-1}+1) iff that advance is ≤ 2w+1.
	// Widen r to the smallest w that guarantees it, ⌈(⌈slope⌉−1)/2⌉, which
	// is 0 for slope ≤ 1 (the classic equal-length band is untouched).
	halfWidth := r
	if minHalf := int(math.Ceil(slope)) / 2; minHalf > halfWidth {
		halfWidth = minHalf
	}
	rp := acquireRows(m)
	defer releaseRows(rp)
	prev, cur := rp.prev, rp.cur
	for j := range prev {
		prev[j] = Inf
		cur[j] = Inf
	}
	lo0, hi0 := bandRange(0, slope, halfWidth, m)
	for j := lo0; j <= hi0; j++ {
		e := base.Elem(s[0], q[j])
		if j == 0 {
			prev[j] = e
		} else if prev[j-1] < Inf {
			prev[j] = base.Combine(e, prev[j-1])
		}
	}
	for i := 1; i < n; i++ {
		lo, hi := bandRange(i, slope, halfWidth, m)
		for j := 0; j < m; j++ {
			cur[j] = Inf
		}
		for j := lo; j <= hi; j++ {
			best := prev[j]
			if j > 0 {
				if cur[j-1] < best {
					best = cur[j-1]
				}
				if prev[j-1] < best {
					best = prev[j-1]
				}
			}
			if math.IsInf(best, 1) {
				continue
			}
			cur[j] = base.Combine(base.Elem(s[i], q[j]), best)
		}
		prev, cur = cur, prev
	}
	return prev[m-1]
}

// BandDistanceWithin is BandDistance with early abandoning: it returns
// (d, true) with the exact banded distance when d ≤ epsilon and (+Inf,
// false) as soon as every cell of a band row exceeds epsilon (cell values
// never decrease along a path, so no completion can come back under it).
// The banded refine path uses this the way the unbanded one uses the

func bandDistanceWithinDense(s, q seq.Sequence, base seq.Base, r int, epsilon float64) (float64, bool) {
	if r < 0 {
		return DistanceWithin(s, q, base, epsilon)
	}
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
	if n == 1 || m == 1 {
		return DistanceWithin(s, q, base, epsilon)
	}
	slope := float64(m-1) / float64(n-1)
	halfWidth := r
	if minHalf := int(math.Ceil(slope)) / 2; minHalf > halfWidth {
		halfWidth = minHalf
	}
	rp := acquireRows(m)
	defer releaseRows(rp)
	prev, cur := rp.prev, rp.cur
	for j := range prev {
		prev[j] = Inf
		cur[j] = Inf
	}
	lo0, hi0 := bandRange(0, slope, halfWidth, m)
	for j := lo0; j <= hi0; j++ {
		e := base.Elem(s[0], q[j])
		if j == 0 {
			prev[j] = e
		} else if prev[j-1] < Inf {
			prev[j] = base.Combine(e, prev[j-1])
		}
	}
	for i := 1; i < n; i++ {
		lo, hi := bandRange(i, slope, halfWidth, m)
		for j := 0; j < m; j++ {
			cur[j] = Inf
		}
		alive := false
		for j := lo; j <= hi; j++ {
			best := prev[j]
			if j > 0 {
				if cur[j-1] < best {
					best = cur[j-1]
				}
				if prev[j-1] < best {
					best = prev[j-1]
				}
			}
			if math.IsInf(best, 1) {
				continue
			}
			v := base.Combine(base.Elem(s[i], q[j]), best)
			cur[j] = v
			if v <= epsilon {
				alive = true
			}
		}
		if !alive {
			return Inf, false
		}
		prev, cur = cur, prev
	}
	if d := prev[m-1]; d <= epsilon {
		return d, true
	}
	return Inf, false
}

// poisonRows fills a pooled row pair with zeros, a value alive under every
// cutoff, so a kernel reading a cell it did not write in this call returns
// a wrong, too small distance instead of a stale but harmless one.
func poisonRows(m int) {
	rp := acquireRows(m)
	for j := range rp.prev {
		rp.prev[j], rp.cur[j] = 0, 0
	}
	releaseRows(rp)
}

// checkBandKernel compares BandDistance and BandDistanceWithin against the
// dense oracle bit for bit, at cutoffs below, at and above the true banded
// distance and at +Inf.
func checkBandKernel(t *testing.T, s, q seq.Sequence, base seq.Base, r int) {
	t.Helper()
	want := bandDistanceDense(s, q, base, r)
	poisonRows(len(q))
	if got := BandDistance(s, q, base, r); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("BandDistance(|s|=%d, |q|=%d, %v, r=%d) = %v, dense %v", len(s), len(q), base, r, got, want)
	}
	cutoffs := []float64{
		want / 2, math.Nextafter(want, 0), want,
		math.Nextafter(want, Inf), want * 1.5, 0, Inf,
	}
	for _, eps := range cutoffs {
		wd, wok := bandDistanceWithinDense(s, q, base, r, eps)
		poisonRows(len(q))
		gd, gok := BandDistanceWithin(s, q, base, r, eps)
		if gok != wok || math.Float64bits(gd) != math.Float64bits(wd) {
			t.Fatalf("BandDistanceWithin(|s|=%d, |q|=%d, %v, r=%d, eps=%v) = (%v, %v), dense (%v, %v)",
				len(s), len(q), base, r, eps, gd, gok, wd, wok)
		}
	}
}

// bandTestSeq returns a length-n sequence of one of three shapes: uniform
// noise, a random walk, or small integers (many exact ties between cells).
func bandTestSeq(rng *rand.Rand, n, shape int) seq.Sequence {
	s := make(seq.Sequence, n)
	for i := range s {
		switch shape {
		case 0:
			s[i] = rng.Float64()*20 - 10
		case 1:
			s[i] = rng.Float64()*0.2 - 0.1
			if i > 0 {
				s[i] += s[i-1]
			}
		default:
			s[i] = float64(rng.Intn(4))
		}
	}
	return s
}

// TestBandKernelMatchesDense: the sparse banded kernel is bit-identical to
// the dense banded DP over equal and unequal lengths 1–64 (steep slopes
// included), every band 0–12, every base and every cutoff class.
func TestBandKernelMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	steep := [][2]int{{2, 10}, {10, 2}, {2, 64}, {64, 2}, {3, 40}, {40, 3}, {1, 30}, {30, 1}}
	for trial := 0; trial < 1500; trial++ {
		n := 1 + rng.Intn(64)
		m := n
		switch {
		case trial < len(steep):
			n, m = steep[trial][0], steep[trial][1]
		case trial%2 == 1:
			m = 1 + rng.Intn(64)
		}
		shape := trial % 3
		s, q := bandTestSeq(rng, n, shape), bandTestSeq(rng, m, shape)
		for _, base := range cascadeBases {
			for r := 0; r <= 12; r++ {
				checkBandKernel(t, s, q, base, r)
			}
		}
	}
}

// TestBandKernelSignedZeros: with −0 among the inputs the kernel may
// differ from the dense DP only in the sign of a zero, so every distance
// and verdict still compares equal.
func TestBandKernelSignedZeros(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	vals := []float64{math.Copysign(0, -1), 0, 1, -1}
	for trial := 0; trial < 500; trial++ {
		s := make(seq.Sequence, 2+rng.Intn(20))
		q := make(seq.Sequence, 2+rng.Intn(20))
		for i := range s {
			s[i] = vals[rng.Intn(len(vals))]
		}
		for i := range q {
			q[i] = vals[rng.Intn(len(vals))]
		}
		for _, base := range cascadeBases {
			r := rng.Intn(4)
			want := bandDistanceDense(s, q, base, r)
			if got := BandDistance(s, q, base, r); got != want {
				t.Fatalf("BandDistance(%v, %v, %v, r=%d) = %v, dense %v", s, q, base, r, got, want)
			}
			for _, eps := range []float64{0, 1, Inf} {
				wd, wok := bandDistanceWithinDense(s, q, base, r, eps)
				if gd, gok := BandDistanceWithin(s, q, base, r, eps); gd != wd || gok != wok {
					t.Fatalf("BandDistanceWithin(%v, %v, %v, r=%d, eps=%v) = (%v, %v), dense (%v, %v)",
						s, q, base, r, eps, gd, gok, wd, wok)
				}
			}
		}
	}
}

// FuzzBandKernel runs the dense-oracle comparison on fuzzer-chosen pairs of
// any lengths up to 64; `make fuzz-smoke` runs it briefly in CI.
func FuzzBandKernel(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4}, []byte{4, 3, 2, 1}, 1)
	f.Add([]byte{0, 9}, []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 0)
	f.Add([]byte{0, 255, 0, 255, 128, 7, 7}, []byte{128, 128, 128}, 12)
	f.Fuzz(func(t *testing.T, sraw, qraw []byte, r int) {
		if len(sraw) > 64 {
			sraw = sraw[:64]
		}
		if len(qraw) > 64 {
			qraw = qraw[:64]
		}
		if r < 0 {
			r = -r
		}
		r %= 16
		s := make(seq.Sequence, len(sraw))
		q := make(seq.Sequence, len(qraw))
		for i, b := range sraw {
			s[i] = float64(b)/16 - 8
		}
		for i, b := range qraw {
			q[i] = float64(b)/16 - 8
		}
		for _, base := range cascadeBases {
			checkBandKernel(t, s, q, base, r)
		}
	})
}

// TestBandDistanceZeroAllocs: the banded path allocates nothing in steady
// state, for every base, at lengths 128 and 512 with band 8.
func TestBandDistanceZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes pool operations allocate")
	}
	rng := rand.New(rand.NewSource(97))
	for _, n := range []int{128, 512} {
		s, q := synth.RandomWalk(rng, n), synth.RandomWalk(rng, n)
		q[0], q[n-1] = s[0], s[n-1] // pass the corner pre-check
		for _, base := range cascadeBases {
			eps := BandDistance(s, q, base, 8)
			for i := 0; i < 4; i++ {
				BandDistanceWithin(s, q, base, 8, eps)
			}
			if a := testing.AllocsPerRun(100, func() {
				BandDistance(s, q, base, 8)
				BandDistanceWithin(s, q, base, 8, eps)
				BandDistanceWithin(s, q, base, 8, eps/2)
			}); a != 0 {
				t.Fatalf("n=%d base %v: %v allocs/op in steady state", n, base, a)
			}
		}
	}
}

var sinkBand float64

// BenchmarkBandDistanceWithin times one banded refinement call (L∞, band 8)
// on 128-length random walks, with candidates drawn the way the cascade's
// survivors look: perturbed copies of a few walks, so some are near the
// query and some die early. Cutoffs: the benchmark's range tolerance 0.35,
// a k-NN-like cutoff (the 10th smallest banded distance over the
// candidates) and +Inf (the plain banded distance).
func BenchmarkBandDistanceWithin(b *testing.B) {
	const n, band = 128, 8
	rng := rand.New(rand.NewSource(101))
	walks := synth.RandomWalkSet(rng, 4, n)
	q := synth.Query(rng, walks[:1])
	cands := synth.Queries(rng, walks, 64)
	ds := make([]float64, len(cands))
	for i, c := range cands {
		ds[i] = BandDistance(c, q, seq.LInf, band)
	}
	sort.Float64s(ds)
	for _, bc := range []struct {
		name   string
		cutoff float64
	}{{"eps=0.35", 0.35}, {"knn10", ds[9]}, {"inf", Inf}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d, _ := BandDistanceWithin(cands[i%len(cands)], q, seq.LInf, band, bc.cutoff)
				sinkBand = d
			}
		})
	}
}
