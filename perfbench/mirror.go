package main

import (
	"errors"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/dtw"
	"repro/internal/seq"
	"repro/internal/seqdb"
)

// mirror replays one query through the layers' own exported functions in
// the order TW-Sim-Search calls them (internal/core's serial range refine
// and k-NN walk), opening a span around each call. The glue between the
// calls — tier order, cutoffs, which counter a dismissal credits, the k-NN
// deferred refinement — copies the core package's unexported cascade, so
// the replay's answers and work counters can be compared with the DB's.
// Only the paper's L∞ base is mirrored; every workload uses it.
type mirror struct {
	t       *tracer
	store   *seqdb.DB
	envs    *core.EnvStore
	q       seq.Sequence
	band    int
	fq      [4]float64
	fqOK    bool
	env     dtw.Envelope // global envelope
	bandEnv dtw.Envelope // banded envelope, band ≥ 1 only
	impr    dtw.ImprovedScratch
	refiner *dtw.Refiner
	paa     paaQuery
	st      core.QueryStats
	lc      *layerCounts
}

// layerCounts accumulates, per layer, how often its bound ran and how
// often it dismissed a candidate, plus fetch and DP call counts.
type layerCounts struct {
	evaluated, pruned [numLayers]int
	dpMatches         [numLayers]int
}

func newMirror(t *tracer, store *seqdb.DB, envs *core.EnvStore, lc *layerCounts, q seq.Sequence, band int) *mirror {
	m := &mirror{t: t, store: store, envs: envs, lc: lc, q: q, band: band}
	if f, err := seq.ExtractFeature(q); err == nil {
		m.fq, m.fqOK = f.Vector(), true
	}
	m.env = dtw.GlobalEnvelope(q)
	if band >= 1 {
		m.bandEnv = dtw.NewEnvelope(q, band)
	}
	m.refiner = dtw.AcquireRefiner()
	return m
}

func (m *mirror) close() { m.refiner.Release() }

// ---- range search ----

func (m *mirror) search(idx *core.FeatureIndex, eps float64) ([]core.Match, error) {
	fq, err := seq.ExtractFeature(m.q)
	if err != nil {
		return nil, err
	}
	sp := m.t.begin(layFilter)
	entries, err := idx.RangeQueryEntries(fq, eps) // the L∞ filter radius is ε itself
	m.t.end(sp)
	if err != nil {
		return nil, err
	}
	m.st.Candidates = len(entries)
	var matches []core.Match
	for _, e := range entries {
		if !m.admitPoint(e.Point, eps) || !m.admitEnvelope(e.ID, eps) {
			continue
		}
		s, err := m.fetch(e.ID)
		if errors.Is(err, seqdb.ErrDeleted) || errors.Is(err, seqdb.ErrNotFound) {
			continue
		}
		if err != nil {
			return nil, err
		}
		if d, ok := m.verify(s, eps); ok {
			matches = append(matches, core.Match{ID: e.ID, Dist: d})
		}
	}
	sortMatches(matches)
	return matches, nil
}

func sortMatches(ms []core.Match) {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].Dist != ms[j].Dist {
			return ms[i].Dist < ms[j].Dist
		}
		return ms[i].ID < ms[j].ID
	})
}

func (m *mirror) fetch(id seq.ID) (seq.Sequence, error) {
	sp := m.t.begin(layFetch)
	s, err := m.store.Get(id)
	m.t.end(sp)
	m.lc.evaluated[layFetch]++
	return s, err
}

// ---- tiers ----

// admitPoint is Tier 0, LB_Kim against the stored index point.
func (m *mirror) admitPoint(pt [4]float64, cutoff float64) bool {
	if !m.fqOK || math.IsInf(cutoff, 1) {
		return true
	}
	sp := m.t.begin(layKim)
	lb := 0.0
	for i := range pt {
		lb = math.Max(lb, math.Abs(pt[i]-m.fq[i]))
	}
	m.t.end(sp)
	return m.judge(layKim, lb > cutoff, &m.st.LBKimPruned)
}

// admitEnvelope is Tier 0.5, LB_PAA against the stored PAA envelope.
func (m *mirror) admitEnvelope(id seq.ID, cutoff float64) bool {
	if m.envs == nil || len(m.q) == 0 || math.IsInf(cutoff, 1) {
		return true
	}
	sp := m.t.begin(layPAA)
	pe, ok := m.envs.Get(id)
	lb := 0.0
	if ok {
		lb = m.lbPAA(&pe)
	}
	m.t.end(sp)
	if !ok {
		return true
	}
	return m.judge(layPAA, lb > cutoff, &m.st.LBPAAPruned)
}

// judge counts one evaluation of layer l and, when it prunes, credits the
// dismissal; it reports whether the candidate survives.
func (m *mirror) judge(l layer, prune bool, counter *int) bool {
	m.lc.evaluated[l]++
	if prune {
		m.lc.pruned[l]++
		*counter++
	}
	return !prune
}

func (m *mirror) keogh(s seq.Sequence) float64 {
	env, band := m.env, -1
	if m.band >= 1 && len(s) == len(m.q) {
		env, band = m.bandEnv, m.band
	}
	sp := m.t.begin(layKeogh)
	v, err := dtw.LBKeoghSafe(s, env, seq.LInf, band)
	m.t.end(sp)
	if err != nil {
		return 0
	}
	return v
}

// yi completes the two-sided LB_Yi from the Keogh value kS.
func (m *mirror) yi(s seq.Sequence, kS float64) float64 {
	sp := m.t.begin(layYi)
	sMin, sMax := s.MinMax()
	v := kS
	for _, x := range m.q {
		v = math.Max(v, seq.DistToRange(x, sMin, sMax))
	}
	m.t.end(sp)
	return v
}

func (m *mirror) improved(s seq.Sequence, kB float64) float64 {
	sp := m.t.begin(layImproved)
	v := dtw.CombineImproved(kB, dtw.LBImprovedPass2(s, m.q, m.bandEnv, seq.LInf, &m.impr), seq.LInf)
	m.t.end(sp)
	return v
}

// verify runs Tiers 1a–1c and the exact DP against cutoff.
func (m *mirror) verify(s seq.Sequence, cutoff float64) (float64, bool) {
	if s.Empty() {
		return m.verifyDP(s, cutoff)
	}
	k := m.keogh(s)
	if !m.judge(layKeogh, k > cutoff, &m.st.LBKeoghPruned) {
		return dtw.Inf, false
	}
	if !m.judge(layYi, m.yi(s, k) > cutoff, &m.st.LBYiPruned) {
		return dtw.Inf, false
	}
	if m.band >= 1 && len(s) == len(m.q) {
		if !m.judge(layImproved, m.improved(s, k) > cutoff, &m.st.LBImprovedPruned) {
			return dtw.Inf, false
		}
	}
	return m.verifyDP(s, cutoff)
}

func (m *mirror) verifyDP(s seq.Sequence, cutoff float64) (float64, bool) {
	if m.band >= 1 {
		sp := m.t.begin(layDPBanded)
		d, ok := dtw.BandDistanceWithin(s, m.q, seq.LInf, m.band, cutoff)
		m.t.end(sp)
		m.st.DTWCalls++
		m.countDP(layDPBanded, ok)
		if !ok {
			m.st.DTWAbandoned++
		}
		return d, ok
	}
	sp := m.t.begin(layDPUnbanded)
	d, verdict := m.refiner.DistanceWithin(s, m.q, seq.LInf, cutoff)
	m.t.end(sp)
	m.countDP(layDPUnbanded, verdict == dtw.VerdictWithin)
	switch verdict {
	case dtw.VerdictPruned:
		m.st.CorridorPruned++
		return dtw.Inf, false
	case dtw.VerdictAbandoned:
		m.st.DTWCalls++
		m.st.DTWAbandoned++
		return dtw.Inf, false
	}
	m.st.DTWCalls++
	return d, true
}

func (m *mirror) countDP(l layer, match bool) {
	m.lc.evaluated[l]++
	if match {
		m.lc.dpMatches[l]++
	}
}

// exact is the full distance, for k-NN candidates met while the cutoff is
// still infinite.
func (m *mirror) exact(s seq.Sequence) float64 {
	l := layDPUnbanded
	if m.band >= 1 {
		l = layDPBanded
	}
	sp := m.t.begin(l)
	var d float64
	if m.band >= 1 {
		d = dtw.BandDistance(s, m.q, seq.LInf, m.band)
	} else {
		d = dtw.Distance(s, m.q, seq.LInf)
	}
	m.t.end(sp)
	m.countDP(l, true)
	return d
}

// ---- LB_PAA (core's paaPruner, L∞ base) ----

type paaQuery struct {
	qMin, qMax     float64
	globalReady    bool
	segMin, segMax [seq.PAASegments]float64
	segReady       bool
}

func (m *mirror) lbPAA(pe *seq.PAAEnvelope) float64 {
	banded := m.band >= 1 && pe.Len == len(m.q)
	if banded {
		m.segWindows()
	} else if !m.paa.globalReady {
		m.paa.qMin, m.paa.qMax = m.q.MinMax()
		m.paa.globalReady = true
	}
	lb := 0.0
	for k := 0; k < seq.PAASegments; k++ {
		lo, hi := seq.PAABounds(pe.Len, k)
		if lo >= hi {
			continue
		}
		qlo, qhi := m.paa.qMin, m.paa.qMax
		if banded {
			qlo, qhi = m.paa.segMin[k], m.paa.segMax[k]
		}
		lb = math.Max(lb, intervalGap(pe.Min[k], pe.Max[k], qlo, qhi))
	}
	return lb
}

func (m *mirror) segWindows() {
	if m.paa.segReady {
		return
	}
	n := len(m.q)
	for k := 0; k < seq.PAASegments; k++ {
		lo, hi := seq.PAABounds(n, k)
		if lo >= hi {
			continue
		}
		wlo, whi := max(lo-m.band, 0), min(hi-1+m.band, n-1)
		mn, mx := m.q[wlo], m.q[wlo]
		for _, v := range m.q[wlo+1 : whi+1] {
			mn, mx = math.Min(mn, v), math.Max(mx, v)
		}
		m.paa.segMin[k], m.paa.segMax[k] = mn, mx
	}
	m.paa.segReady = true
}

func intervalGap(aLo, aHi, bLo, bHi float64) float64 {
	switch {
	case aLo > bHi:
		return aLo - bHi
	case bLo > aHi:
		return bLo - aHi
	}
	return 0
}

// ---- k-NN ----

// Tiers a deferred k-NN candidate's bound came from.
const (
	tierKeogh = iota + 1
	tierYi
	tierImproved
	tierWalkKey
)

type deferred struct {
	id   seq.ID
	s    seq.Sequence
	lb   float64
	tier int
}

// nearestK mirrors core's serial k-NN: the envelope-keyed index walk, the
// immediate-refine loop for unbanded queries, and for banded ones the
// aligned-path upper-bound cutoff with deferred exact DP.
func (m *mirror) nearestK(idx *core.FeatureIndex, k int) ([]core.Match, error) {
	fq, err := seq.ExtractFeature(m.q)
	if err != nil || k <= 0 {
		return nil, err
	}
	var ubs []float64 // max-heap of the k smallest upper bounds
	var dq []deferred
	var best []core.Match
	cutoffNow := func() float64 {
		c := math.Inf(1)
		if len(best) == k {
			c = best[k-1].Dist
		}
		if len(ubs) == k && ubs[0] < c {
			c = ubs[0]
		}
		return c
	}
	admit := func(id seq.ID, d float64) {
		best = append(best, core.Match{ID: id, Dist: d})
		sortMatches(best)
		if len(best) > k {
			best = best[:k]
		}
	}
	var sharpen func(id seq.ID) float64
	if m.envs.Len() > 0 {
		sharpen = func(id seq.ID) float64 {
			sp := m.t.begin(layPAA)
			defer m.t.end(sp)
			if pe, ok := m.envs.Get(id); ok {
				return m.lbPAA(&pe)
			}
			return 0
		}
	}
	var walkErr error
	sp := m.t.begin(layFilter)
	_, err = idx.NearestWalkKeyed(fq, func(d float64) float64 { return d }, sharpen, func(id seq.ID, key float64) bool {
		cutoff := cutoffNow()
		if key > cutoff {
			return false
		}
		if !m.admitEnvelope(id, cutoff) {
			m.st.Candidates++
			return true
		}
		s, err := m.fetch(id)
		if errors.Is(err, seqdb.ErrDeleted) || errors.Is(err, seqdb.ErrNotFound) {
			return true
		}
		if err != nil {
			walkErr = err
			return false
		}
		m.st.Candidates++
		if m.band < 1 {
			if math.IsInf(cutoff, 1) {
				m.st.DTWCalls++
				admit(id, m.exact(s))
			} else if d, ok := m.verify(s, cutoff); ok {
				admit(id, d)
			}
			return true
		}
		if u, ok := m.upperBound(s); ok {
			ubs = pushUB(ubs, k, u)
			cutoff = cutoffNow()
		}
		lb, tier, pruned := m.bound(s, cutoff)
		if pruned {
			return true
		}
		if key > lb {
			lb, tier = key, tierWalkKey
		}
		dq = pushDeferred(dq, deferred{id: id, s: s, lb: lb, tier: tier})
		for len(dq) > 0 && dq[0].lb <= key {
			var top deferred
			top, dq = popDeferred(dq)
			m.resolve(top, cutoffNow(), admit)
		}
		return true
	})
	m.t.end(sp)
	if walkErr != nil {
		return nil, walkErr
	}
	if err != nil {
		return nil, err
	}
	for len(dq) > 0 {
		var top deferred
		top, dq = popDeferred(dq)
		m.resolve(top, cutoffNow(), admit)
	}
	return best, nil
}

func (m *mirror) resolve(top deferred, cutoff float64, admit func(seq.ID, float64)) {
	if top.lb > cutoff {
		switch top.tier {
		case tierKeogh:
			m.st.LBKeoghPruned++
		case tierYi:
			m.st.LBYiPruned++
		case tierImproved:
			m.st.LBImprovedPruned++
		case tierWalkKey:
			m.st.LBKimPruned++
		default:
			m.st.CorridorPruned++
		}
		return
	}
	if d, ok := m.verifyDP(top.s, cutoff); ok {
		admit(top.id, d)
	}
}

// bound runs Tiers 1a–1c without the DP and returns the strongest bound.
func (m *mirror) bound(s seq.Sequence, cutoff float64) (float64, int, bool) {
	if s.Empty() {
		return 0, 0, false
	}
	k := m.keogh(s)
	if !m.judge(layKeogh, k > cutoff, &m.st.LBKeoghPruned) {
		return k, tierKeogh, true
	}
	yi := m.yi(s, k)
	if !m.judge(layYi, yi > cutoff, &m.st.LBYiPruned) {
		return yi, tierYi, true
	}
	if m.band < 1 || len(s) != len(m.q) {
		return yi, tierYi, false
	}
	imp := m.improved(s, k)
	if !m.judge(layImproved, imp > cutoff, &m.st.LBImprovedPruned) {
		return imp, tierImproved, true
	}
	if yi > imp {
		return yi, tierYi, false
	}
	return imp, tierImproved, false
}

// upperBound is the cost of the all-diagonal warping path.
func (m *mirror) upperBound(s seq.Sequence) (float64, bool) {
	if len(s) != len(m.q) || len(s) == 0 {
		return 0, false
	}
	sp := m.t.begin(layUB)
	u := 0.0
	for i := range s {
		u = math.Max(u, math.Abs(s[i]-m.q[i]))
	}
	m.t.end(sp)
	return u, true
}

// pushUB keeps the k smallest upper bounds as a max-heap.
func pushUB(h []float64, k int, u float64) []float64 {
	if len(h) < k {
		h = append(h, u)
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if h[p] >= h[i] {
				break
			}
			h[p], h[i] = h[i], h[p]
			i = p
		}
		return h
	}
	if u >= h[0] {
		return h
	}
	h[0] = u
	for i := 0; ; {
		l, r, big := 2*i+1, 2*i+2, i
		if l < len(h) && h[l] > h[big] {
			big = l
		}
		if r < len(h) && h[r] > h[big] {
			big = r
		}
		if big == i {
			return h
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
}

func deferLess(a, b deferred) bool {
	if a.lb != b.lb {
		return a.lb < b.lb
	}
	return a.id < b.id
}

func pushDeferred(h []deferred, d deferred) []deferred {
	h = append(h, d)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !deferLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	return h
}

func popDeferred(h []deferred) (deferred, []deferred) {
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		l, r, small := 2*i+1, 2*i+2, i
		if l < n && deferLess(h[l], h[small]) {
			small = l
		}
		if r < n && deferLess(h[r], h[small]) {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	return top, h
}
