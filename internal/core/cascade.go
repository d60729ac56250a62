package core

import (
	"math"

	"repro/internal/dtw"
	"repro/internal/seq"
)

// cascade is the tiered filter-and-refine engine every exact search method
// funnels candidates through. Tiers run cheapest first, and each one is a
// true lower bound of the distance being answered — the unconstrained time
// warping distance by default, or BandDistance when the query carries a
// Sakoe–Chiba band — so a dismissal at any tier can never be a false
// dismissal (the guarantee the paper's Theorem 1 establishes for the index
// filter extends to every tier):
//
//	Tier 0    admitPoint    — LB_Kim on the stored index 4-tuple, no heap fetch
//	Tier 0.5  admitEnvelope — LB_PAA on the stored PAA envelope (EnvStore),
//	                          still before any heap fetch
//	Tier 1a   verify        — LB_Keogh: the banded envelope when the query
//	                          has a band and the lengths match (sound for
//	                          BandDistance), else the global envelope (the
//	                          S-side of LB_Yi, sound for both distances)
//	Tier 1b   verify        — the completed two-sided LB_Yi
//	Tier 1c   verify        — the second pass of Lemire's LB_Improved
//	                          (banded equal-length queries only)
//	Tier 2–3  verify        — the exact DP: one sparse early-abandoning
//	                          kernel, unconstrained or banded
//
// Every unconstrained bound stays sound for banded queries because a band
// only removes permissible warpings: BandDistance ≥ Distance ≥ each bound.
//
// The cutoff is the query tolerance for range search and the shrinking
// k-th-best bound for k-NN (including the cross-shard SharedBound), so the
// tiers tighten as a k-NN search proceeds.
//
// Build one cascade per query with newCascade. Not safe for concurrent use.
type cascade struct {
	// paaPruner carries q, base, band, and the cached query-side PAA
	// reductions; embedding it gives the cascade Tier 0.5 and lets the
	// k-NN walk's envelope ordering share the identical bound (see
	// newPAAPruner).
	paaPruner
	fq       [4]float64
	fqOK     bool
	env      dtw.Envelope // global envelope: sound for every query
	bandEnv  dtw.Envelope // banded envelope of q; built only when band ≥ 1
	envs     *EnvStore
	impr     dtw.ImprovedScratch
	disabled bool
}

// paaPruner is the query-side state of the LB_PAA bound, shared between the
// cascade's Tier 0.5 and the k-NN walk's envelope-sharpened keys. Both call
// sites evaluating the same pruner on the same envelope compute
// bit-identical bounds. Not safe for concurrent use (the cached reductions
// fill lazily).
type paaPruner struct {
	q    seq.Sequence
	base seq.Base
	// band is the Sakoe–Chiba half-width the query searches under: 0 means
	// the paper's unconstrained distance, ≥ 1 answers dtw.BandDistance.
	band int
	paa  paaQuery
}

// newPAAPruner builds a standalone pruner for the k-NN walk — the cheap
// subset of newCascade (no envelopes).
func newPAAPruner(q seq.Sequence, base seq.Base, band int) *paaPruner {
	if band < 0 {
		band = 0
	}
	return &paaPruner{q: q, base: base, band: band}
}

// paaQuery caches the query-side reductions LB_PAA needs: the global range
// of Q (any length, any band) and, for banded equal-length candidates, the
// per-segment min/max of Q over band-expanded segment windows. Both are
// computed once per query, on first use.
type paaQuery struct {
	qMin, qMax     float64
	globalReady    bool
	segMin, segMax [seq.PAASegments]float64
	segReady       bool
}

// newCascade prepares the per-query state: the query feature vector
// (Tier 0) and the envelopes (Tiers 0.5–1c, computed once per query).
// band ≥ 1 switches the exact distance to dtw.BandDistance with that
// half-width; envs enables the pre-fetch LB_PAA tier. With disabled=true
// every candidate goes straight to the exact DP — the seed's behavior,
// kept for benchmarks and oracle tests (the band still applies: a disabled
// banded cascade is the brute-force banded scan).
func newCascade(q seq.Sequence, base seq.Base, band int, envs *EnvStore, disabled bool) *cascade {
	if band < 0 {
		band = 0 // public layers validate; never let a bad band weaken a bound
	}
	c := &cascade{paaPruner: paaPruner{q: q, base: base, band: band}, envs: envs, disabled: disabled}
	if disabled {
		return c
	}
	if f, err := seq.ExtractFeature(q); err == nil {
		c.fq = f.Vector()
		c.fqOK = true
	}
	c.env = dtw.GlobalEnvelope(q)
	if band >= 1 {
		c.bandEnv = dtw.NewEnvelope(q, band)
	}
	return c
}

// dtwBand returns the band in dtw-package convention: negative for the
// unconstrained distance, the half-width otherwise.
func (c *cascade) dtwBand() int {
	if c.band >= 1 {
		return c.band
	}
	return -1
}

// exactDistance is the distance the query answers: BandDistance for banded
// queries, the paper's unconstrained distance otherwise. k-NN uses it while
// the cutoff is still infinite.
func (c *cascade) exactDistance(s seq.Sequence) float64 {
	return dtw.BandDistance(s, c.q, c.base, c.dtwBand())
}

// admitPoint is Tier 0: LB_Kim evaluated between the query feature and a
// candidate's stored index point — no heap fetch needed. Sound per
// Theorem 1 (L∞ base) and because every feature difference is bounded by
// some single matched-pair cost on any warping path (L1); for L2Sq that
// single pair contributes its square to the additive total, so the bound
// must be squared before comparing. Banded queries change nothing here:
// LB_Kim ≤ Distance ≤ BandDistance.
func (c *cascade) admitPoint(pt [4]float64, cutoff float64, stats *QueryStats) bool {
	if c.disabled || !c.fqOK || math.IsInf(cutoff, 1) {
		return true
	}
	lb := 0.0
	for i := range pt {
		d := pt[i] - c.fq[i]
		if d < 0 {
			d = -d
		}
		if d > lb {
			lb = d
		}
	}
	if c.base == seq.L2Sq {
		lb = lb * lb
	}
	if lb > cutoff {
		stats.LBKimPruned++
		return false
	}
	return true
}

// admitEnvelope is Tier 0.5: LB_PAA evaluated between the query and the
// candidate's stored PAA envelope — still before any heap fetch. Candidates
// without a stored envelope pass through unharmed.
func (c *cascade) admitEnvelope(id seq.ID, cutoff float64, stats *QueryStats) bool {
	if c.disabled || c.envs == nil || len(c.q) == 0 || math.IsInf(cutoff, 1) {
		return true
	}
	pe, ok := c.envs.Get(id)
	if !ok {
		return true
	}
	if c.lbPAA(&pe) > cutoff {
		stats.LBPAAPruned++
		return false
	}
	return true
}

// lbPAA computes the LB_PAA bound between the query and one stored record
// profile. For a banded query over an equal-length record, segment k's
// elements s_i (i ∈ [lo_k, hi_k)) can only match q_j with |i−j| ≤ band, so
// every matched element lies in Q's band-expanded segment window
// [lo_k−band, hi_k−1+band]; the per-element cost is at least the interval
// gap between the record's segment range and that window's range. In every
// other case the window degrades to Q's global range — each element of S
// matches *some* element of Q (a segment-wise refinement of the S-side of
// LB_Yi), sound for the unconstrained distance and therefore for the banded
// one too. Additive bases sum weight·Elem(0, gap) over segments (each
// element is matched at least once); L∞ takes the max over non-empty
// segments. Either way LB_PAA ≤ LB_Keogh of the corresponding envelope, so
// the tier ordering is monotone.
func (c *paaPruner) lbPAA(pe *seq.PAAEnvelope) float64 {
	banded := c.band >= 1 && pe.Len == len(c.q)
	if banded {
		c.ensureSegWindows()
	} else {
		c.ensureGlobalRange()
	}
	if c.base == seq.LInf {
		max := 0.0
		for k := 0; k < seq.PAASegments; k++ {
			lo, hi := seq.PAABounds(pe.Len, k)
			if lo >= hi {
				continue
			}
			qlo, qhi := c.paaWindow(banded, k)
			if g := intervalGap(pe.Min[k], pe.Max[k], qlo, qhi); g > max {
				max = g
			}
		}
		return max
	}
	acc := 0.0
	for k := 0; k < seq.PAASegments; k++ {
		lo, hi := seq.PAABounds(pe.Len, k)
		if lo >= hi {
			continue
		}
		qlo, qhi := c.paaWindow(banded, k)
		if g := intervalGap(pe.Min[k], pe.Max[k], qlo, qhi); g > 0 {
			acc += float64(hi-lo) * c.base.Elem(0, g)
		}
	}
	return acc
}

func (c *paaPruner) paaWindow(banded bool, k int) (float64, float64) {
	if banded {
		return c.paa.segMin[k], c.paa.segMax[k]
	}
	return c.paa.qMin, c.paa.qMax
}

func (c *paaPruner) ensureGlobalRange() {
	if c.paa.globalReady {
		return
	}
	c.paa.qMin, c.paa.qMax = c.q.MinMax()
	c.paa.globalReady = true
}

func (c *paaPruner) ensureSegWindows() {
	if c.paa.segReady {
		return
	}
	n := len(c.q)
	for k := 0; k < seq.PAASegments; k++ {
		lo, hi := seq.PAABounds(n, k)
		if lo >= hi {
			continue
		}
		wlo, whi := lo-c.band, hi-1+c.band
		if wlo < 0 {
			wlo = 0
		}
		if whi > n-1 {
			whi = n - 1
		}
		mn, mx := c.q[wlo], c.q[wlo]
		for _, v := range c.q[wlo+1 : whi+1] {
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		c.paa.segMin[k], c.paa.segMax[k] = mn, mx
	}
	c.paa.segReady = true
}

// intervalGap is the smallest distance between a point of [aLo, aHi] and a
// point of [bLo, bHi]: 0 when the intervals overlap.
func intervalGap(aLo, aHi, bLo, bHi float64) float64 {
	switch {
	case aLo > bHi:
		return aLo - bHi
	case bLo > aHi:
		return bLo - aHi
	default:
		return 0
	}
}

// comparableLB converts a raw LB_Kim feature distance into the form
// comparable against a DTW distance under base: for the additive L2Sq base
// the single matched pair the bound describes contributes its squared
// difference, so the comparable bound is the square. Used by the k-NN
// walk-stop test; since x ↦ x² is monotone on the walk's nonnegative
// ascending bounds, the converted stream stays ascending and stopping on
// it is sound.
func comparableLB(base seq.Base, lb float64) float64 {
	if base == seq.L2Sq {
		return lb * lb
	}
	return lb
}

// verify runs Tiers 1–3 on a fetched candidate: it returns (d, true) with
// the exact distance iff the query's distance (banded or unconstrained) is
// ≤ cutoff, bit-identical to the corresponding brute-force DP, while
// attributing each dismissal to the tier that made it. Only real DP
// invocations increment DTWCalls.
func (c *cascade) verify(s seq.Sequence, cutoff float64, stats *QueryStats) (float64, bool) {
	if c.disabled || s.Empty() {
		// No range to bound against; the DP handles the degenerate case with
		// its own empty-input convention.
		return c.verifyDP(s, cutoff, stats)
	}
	if c.band >= 1 && len(s) == len(c.q) {
		return c.verifyBanded(s, cutoff, stats)
	}
	// Tier 1a: the S-side of LB_Yi via the global envelope — O(|S|), no
	// min/max of s needed yet. Sound for banded queries too (the global
	// envelope bounds the unconstrained distance, which BandDistance
	// dominates); LBKeoghSafe can only fail on a banded envelope, which this
	// call never passes.
	kS, err := dtw.LBKeoghSafe(s, c.env, c.base, -1)
	if err != nil {
		kS = 0
	}
	if kS > cutoff {
		stats.LBKeoghPruned++
		return dtw.Inf, false
	}
	// Tier 1b: complete the two-sided Yi et al. bound with the Q-side.
	if c.yiComplete(s, kS) > cutoff {
		stats.LBYiPruned++
		return dtw.Inf, false
	}
	return c.verifyDP(s, cutoff, stats)
}

// verifyBanded is the equal-length banded tier chain: banded LB_Keogh,
// the two-sided Yi bound seeded with it, then LB_Improved's second pass.
// The band and lengths are matched by construction, so the safe router
// cannot fail here; if it ever did, the tier degrades to the vacuous bound
// rather than pruning on an unsound value.
func (c *cascade) verifyBanded(s seq.Sequence, cutoff float64, stats *QueryStats) (float64, bool) {
	// Tier 1a: banded LB_Keogh — sound for BandDistance with this exact
	// band (Keogh's theorem; see LBKeoghSafe for the routing rules).
	kB, err := dtw.LBKeoghSafe(s, c.bandEnv, c.base, c.band)
	if err != nil {
		kB = 0
	}
	if kB > cutoff {
		stats.LBKeoghPruned++
		return dtw.Inf, false
	}
	// Tier 1b: the two-sided Yi bound, combined with the banded Keogh value
	// by max — both individually sound for BandDistance, so their max is.
	if c.yiComplete(s, kB) > cutoff {
		stats.LBYiPruned++
		return dtw.Inf, false
	}
	// Tier 1c: Lemire's second pass on top of the banded Keogh value.
	imp := dtw.CombineImproved(kB, dtw.LBImprovedPass2(s, c.q, c.bandEnv, c.base, &c.impr), c.base)
	if imp > cutoff {
		stats.LBImprovedPruned++
		return dtw.Inf, false
	}
	return c.verifyDP(s, cutoff, stats)
}

// Tier identifiers for deferred k-NN resolution: a deferred candidate
// carries the tier that produced its strongest lower bound, so a dismissal
// at resolve time credits the tier that actually proved it (keeping
// Candidates = ΣPruned + DTWCalls exact).
const (
	tierNone = iota
	tierKeogh
	tierYi
	tierImproved
	// tierWalkKey marks a defer key inherited from the index walk — the
	// max of the Tier 0 feature mindist and the Tier 0.5 stored-envelope
	// LB_PAA. Dismissals credit the Tier 0 counter (the two components are
	// not separable at resolve time and Tier 0 is the walk's native bound).
	tierWalkKey
)

// bound runs Tiers 1a–1c on a fetched candidate without the exact DP. It
// returns the strongest lower bound computed and the tier that produced
// it; pruned=true (tier counter incremented) when that bound already
// exceeds cutoff. When pruned=false no counter moves — the caller defers
// the candidate and later either dismisses it (creditTier) or resolves it
// with verifyDP. The tier chain and prune attribution mirror verify /
// verifyBanded exactly.
func (c *cascade) bound(s seq.Sequence, cutoff float64, stats *QueryStats) (lb float64, tier int, pruned bool) {
	if c.disabled || s.Empty() {
		return 0, tierNone, false
	}
	if c.band >= 1 && len(s) == len(c.q) {
		kB, err := dtw.LBKeoghSafe(s, c.bandEnv, c.base, c.band)
		if err != nil {
			kB = 0
		}
		if kB > cutoff {
			stats.LBKeoghPruned++
			return kB, tierKeogh, true
		}
		yi := c.yiComplete(s, kB)
		if yi > cutoff {
			stats.LBYiPruned++
			return yi, tierYi, true
		}
		imp := dtw.CombineImproved(kB, dtw.LBImprovedPass2(s, c.q, c.bandEnv, c.base, &c.impr), c.base)
		if imp > cutoff {
			stats.LBImprovedPruned++
			return imp, tierImproved, true
		}
		// Both yi and imp are sound, so the max is the sharpest defer key.
		if yi > imp {
			return yi, tierYi, false
		}
		return imp, tierImproved, false
	}
	kS, err := dtw.LBKeoghSafe(s, c.env, c.base, -1)
	if err != nil {
		kS = 0
	}
	if kS > cutoff {
		stats.LBKeoghPruned++
		return kS, tierKeogh, true
	}
	yi := c.yiComplete(s, kS)
	if yi > cutoff {
		stats.LBYiPruned++
		return yi, tierYi, true
	}
	return yi, tierYi, false
}

// creditTier attributes a deferred candidate's resolve-time dismissal to
// the tier whose bound proved it.
func creditTier(tier int, stats *QueryStats) {
	switch tier {
	case tierKeogh:
		stats.LBKeoghPruned++
	case tierYi:
		stats.LBYiPruned++
	case tierImproved:
		stats.LBImprovedPruned++
	case tierWalkKey:
		stats.LBKimPruned++
	default:
		// tierNone bounds are 0 and can never exceed a nonnegative cutoff;
		// defensive: attribute to the corridor, which verifyDP owns.
		stats.CorridorPruned++
	}
}

// verifyDP runs only Tiers 2–3 (the exact DP). LB-Scan uses this directly:
// its own LB_Yi filter already ran, so re-running Tier 1 would double-count
// work without pruning anything new. Banded and unconstrained queries run
// the same sparse kernel: each DP row visits only the cells between the
// previous row's first and last alive (≤ cutoff) cells — at most 2·band+1
// of them under a band — so a reject costs the alive interval, not the
// matrix. An unconstrained reject counts as CorridorPruned; banded
// rejects, and every call of the disabled cascade (the brute-force scan),
// count as DP evaluations (DTWCalls, DTWAbandoned).
func (c *cascade) verifyDP(s seq.Sequence, cutoff float64, stats *QueryStats) (float64, bool) {
	d, ok := dtw.BandDistanceWithin(s, c.q, c.base, c.dtwBand(), cutoff)
	switch {
	case ok:
		stats.DTWCalls++
	case c.band >= 1 || c.disabled:
		stats.DTWCalls++
		stats.DTWAbandoned++
	default:
		stats.CorridorPruned++
	}
	return d, ok
}

// yiComplete finishes LB_Yi given the already-computed S-side: it scans q
// against the range of s and combines per the base. Seeded with the global
// Keogh value the combined value equals dtw.LBYi(s, q, base) exactly — the
// two-pass split changes the evaluation order, not the bound. Seeded with
// the banded Keogh value it is max(banded Keogh, Q-side Yi), a sound bound
// of BandDistance because each part is.
func (c *cascade) yiComplete(s seq.Sequence, kS float64) float64 {
	sMin, sMax := s.MinMax()
	if c.base == seq.LInf {
		max := kS
		for _, v := range c.q {
			if d := seq.DistToRange(v, sMin, sMax); d > max {
				max = d
			}
		}
		return max
	}
	sumQ := 0.0
	for _, v := range c.q {
		sumQ += c.base.Elem(0, seq.DistToRange(v, sMin, sMax))
	}
	return math.Max(kS, sumQ)
}
