package core

import (
	"context"
	"errors"
	"math"
	"sort"
	"time"

	"repro/internal/dtw"
	"repro/internal/seq"
	"repro/internal/seqdb"
)

// ctxErr reports the context's error when it is already done; a nil context
// never cancels. Cancellation is checked at candidate boundaries (one check
// per dispatch slot, never per DP cell), so an abandoned query stops issuing
// DTW calls after at most one in-flight candidate per worker — cheap enough
// to sit on the hot path, prompt enough to matter under load.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

// Searcher is a whole-matching similarity search method: it returns every
// data sequence S with Dtw(S, Q) ≤ epsilon. All implementations in this
// package are exact (no false dismissal) except FastMapSearch, which is
// provided to reproduce the paper's §3.3 false-dismissal argument.
type Searcher interface {
	// Name identifies the method in experiment output.
	Name() string
	// Search runs one whole-matching similarity query.
	Search(q seq.Sequence, epsilon float64) (*Result, error)
}

// refine runs the post-processing of Algorithm 1 (Step-4..7) through the
// tiered cascade: each candidate passes Tier 0 (LB_Kim on its stored index
// point, before any heap fetch), is fetched, and then runs Tiers 1–3 (see
// cascade). The matches are exactly {S : Dtw(S,Q) ≤ ε}, bit-identical to
// the plain fetch-and-DTW loop, sorted by distance then ID.
//
// Candidates whose heap record is gone (deleted or never durably written —
// a dangling index entry from an interrupted write) are skipped rather
// than failing the query: dropping them cannot cause a false dismissal,
// and it keeps reads available until the next Repair removes the entries.
// Skipped candidates never touch DTWCalls — the counter reflects only DP
// invocations that actually ran.
//
// With workers > 1 the candidates fan out to a bounded worker pool (see
// refineParallel); the matches and the aggregated stats are bit-identical
// to the serial loop because the pruning cutoff is the fixed tolerance ε,
// so every candidate's verdict is independent of evaluation order.
func refine(ctx context.Context, db *seqdb.DB, base seq.Base, q seq.Sequence, epsilon float64,
	entries []IndexEntry, noCascade bool, band int, envs *EnvStore,
	workers int, stats *QueryStats) ([]Match, error) {
	if workers > 1 && len(entries) > 1 {
		return refineParallel(ctx, db, base, q, epsilon, len(entries),
			func(i int) (seq.ID, [4]float64, bool) { return entries[i].ID, entries[i].Point, true },
			noCascade, band, envs, workers, stats)
	}
	c := newCascade(q, base, band, envs, noCascade)
	var matches []Match
	for _, e := range entries {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		if !c.admitPoint(e.Point, epsilon, stats) {
			continue
		}
		if !c.admitEnvelope(e.ID, epsilon, stats) {
			continue
		}
		s, err := db.Get(e.ID)
		if errors.Is(err, seqdb.ErrDeleted) || errors.Is(err, seqdb.ErrNotFound) {
			continue
		}
		if err != nil {
			return nil, err
		}
		if d, ok := c.verify(s, epsilon, stats); ok {
			matches = append(matches, Match{ID: e.ID, Dist: d})
		}
	}
	sortMatches(matches)
	return matches, nil
}

// refineIDs is refine for methods whose filter produces bare IDs with no
// stored feature point (FastMap, ST-Filter): Tier 0 is skipped, Tiers 1–3
// run after the fetch.
func refineIDs(db *seqdb.DB, base seq.Base, q seq.Sequence, epsilon float64,
	candidates []seq.ID, noCascade bool, workers int, stats *QueryStats) ([]Match, error) {
	if workers > 1 && len(candidates) > 1 {
		return refineParallel(nil, db, base, q, epsilon, len(candidates),
			func(i int) (seq.ID, [4]float64, bool) { return candidates[i], [4]float64{}, false },
			noCascade, 0, nil, workers, stats)
	}
	c := newCascade(q, base, 0, nil, noCascade)
	var matches []Match
	for _, id := range candidates {
		s, err := db.Get(id)
		if errors.Is(err, seqdb.ErrDeleted) || errors.Is(err, seqdb.ErrNotFound) {
			continue
		}
		if err != nil {
			return nil, err
		}
		if d, ok := c.verify(s, epsilon, stats); ok {
			matches = append(matches, Match{ID: id, Dist: d})
		}
	}
	sortMatches(matches)
	return matches, nil
}

// filterRadius converts a query tolerance into the index filter radius.
// The index stores unsquared feature values and Dtw-lb bounds the cost of
// one matched pair, so for the additive L2Sq base — where a matched pair
// contributes the square of its difference — a candidate with feature
// distance f qualifies whenever f² ≤ ε, i.e. f ≤ √ε. The seed passed ε
// through unchanged, which false-dismisses for ε < 1 (where √ε > ε) and
// over-admits for ε > 1; √ε is exact for all ε. The other bases charge the
// pair its absolute difference, so the radius is ε itself.
func filterRadius(base seq.Base, epsilon float64) float64 {
	if base == seq.L2Sq {
		return math.Sqrt(epsilon)
	}
	return epsilon
}

func sortMatches(matches []Match) {
	sort.Slice(matches, func(i, j int) bool {
		if matches[i].Dist != matches[j].Dist {
			return matches[i].Dist < matches[j].Dist
		}
		return matches[i].ID < matches[j].ID
	})
}

// NaiveScan is the sequential-scan baseline (§3.1): it reads every data
// sequence and evaluates the (early-abandoning) DTW directly.
type NaiveScan struct {
	DB   *seqdb.DB
	Base seq.Base
}

// Name implements Searcher.
func (n *NaiveScan) Name() string { return "Naive-Scan" }

// Search implements Searcher.
func (n *NaiveScan) Search(q seq.Sequence, epsilon float64) (*Result, error) {
	start := time.Now()
	before := n.DB.Stats()
	res := &Result{}
	err := n.DB.Scan(func(id seq.ID, s seq.Sequence) error {
		res.Stats.DTWCalls++
		if d, ok := dtw.DistanceWithin(s, q, n.Base, epsilon); ok {
			res.Matches = append(res.Matches, Match{ID: id, Dist: d})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sortMatches(res.Matches)
	after := n.DB.Stats()
	res.Stats.Results = len(res.Matches)
	// Naive-Scan has no filtering step; following the paper's Experiment 1
	// convention, its candidate count equals its result count.
	res.Stats.Candidates = len(res.Matches)
	res.Stats.DataReads = after.Reads - before.Reads
	res.Stats.DataMisses = after.Misses - before.Misses
	res.Stats.DataSeqMisses = after.SeqMisses - before.SeqMisses
	res.Stats.Wall = time.Since(start)
	return res, nil
}

// LBScan is Yi et al.'s sequential scan with the O(|S|+|Q|) lower bound
// D_lb used as a cheap filter before the full DTW (§3.2).
type LBScan struct {
	DB   *seqdb.DB
	Base seq.Base
}

// Name implements Searcher.
func (l *LBScan) Name() string { return "LB-Scan" }

// Search implements Searcher.
func (l *LBScan) Search(q seq.Sequence, epsilon float64) (*Result, error) {
	start := time.Now()
	before := l.DB.Stats()
	res := &Result{}
	// LB-Scan's own filter IS the cascade's Tier 1 (the two-sided Yi
	// bound), so survivors go straight to Tiers 2–3; re-running the
	// envelope tiers would recompute the same bound.
	c := newCascade(q, l.Base, 0, nil, false)
	err := l.DB.Scan(func(id seq.ID, s seq.Sequence) error {
		res.Stats.LowerBoundCalls++
		if dtw.LBYi(s, q, l.Base) > epsilon {
			return nil
		}
		res.Stats.Candidates++
		if d, ok := c.verifyDP(s, epsilon, &res.Stats); ok {
			res.Matches = append(res.Matches, Match{ID: id, Dist: d})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sortMatches(res.Matches)
	after := l.DB.Stats()
	res.Stats.Results = len(res.Matches)
	res.Stats.DataReads = after.Reads - before.Reads
	res.Stats.DataMisses = after.Misses - before.Misses
	res.Stats.DataSeqMisses = after.SeqMisses - before.SeqMisses
	res.Stats.Wall = time.Since(start)
	return res, nil
}

// TWSimSearch is the paper's method (Algorithm 1): a square range query on
// the 4-d feature index with Dtw-lb as the pruning metric, followed by
// exact DTW refinement. Theorems 1 and 2 guarantee no false dismissal.
type TWSimSearch struct {
	DB    *seqdb.DB
	Index *FeatureIndex
	Base  seq.Base
	// NoCascade disables the tiered refinement cascade, sending every
	// candidate straight to the exact early-abandoning DP (the pre-cascade
	// behavior). Results are bit-identical either way; the flag exists for
	// benchmarks and equivalence tests.
	NoCascade bool
	// Workers bounds the intra-query refinement parallelism. Values ≤ 1
	// keep the historical serial execution (the zero value is serial, so
	// direct constructions — including the experiment drivers, whose
	// per-query I/O accounting depends on a deterministic fetch order —
	// are unchanged). The public layer resolves its default to GOMAXPROCS.
	Workers int
	// Band is the Sakoe–Chiba half-width the query searches under: 0 (the
	// zero value) answers the paper's unconstrained distance, ≥ 1 answers
	// dtw.BandDistance with that half-width. The index filter and every
	// unconstrained cascade tier stay sound because a band only removes
	// permissible warpings (BandDistance ≥ Distance); the banded envelope
	// tiers switch on automatically for equal-length candidates.
	Band int
	// Envs, when set, enables the pre-fetch LB_PAA cascade tier against the
	// per-record PAA envelopes.
	Envs *EnvStore
	// NoEnvOrder disables the k-NN walk's envelope-sharpened frontier
	// ordering (the two-level re-key by max(mindist, LB_PAA)), keeping the
	// plain mindist stream. Results are bit-identical either way; the flag
	// exists for benchmarks and equivalence tests. NoCascade implies it.
	NoEnvOrder bool
	// Ctx, when set, cancels the query at the next candidate boundary: the
	// refine loop (serial or parallel) and the k-NN walk check it once per
	// candidate and return its error, so an abandoned query stops issuing
	// DTW calls promptly. Cancellation can only abandon work, never skip a
	// qualifying candidate, so a completed query is bit-identical whether or
	// not a context was attached. Nil never cancels.
	Ctx context.Context
}

// Name implements Searcher.
func (t *TWSimSearch) Name() string { return "TW-Sim-Search" }

// Search implements Searcher.
func (t *TWSimSearch) Search(q seq.Sequence, epsilon float64) (*Result, error) {
	if err := ctxErr(t.Ctx); err != nil {
		return nil, err
	}
	start := time.Now()
	dbBefore := t.DB.Stats()
	idxBefore := t.Index.Stats()
	fq, err := seq.ExtractFeature(q)
	if err != nil {
		return nil, err
	}
	entries, err := t.Index.RangeQueryEntries(fq, filterRadius(t.Base, epsilon))
	if err != nil {
		return nil, err
	}
	res := &Result{}
	res.Stats.FilterWall = time.Since(start)
	res.Stats.Candidates = len(entries)
	refineStart := time.Now()
	res.Matches, err = refine(t.Ctx, t.DB, t.Base, q, epsilon, entries, t.NoCascade, t.Band, t.Envs, t.Workers, &res.Stats)
	if err != nil {
		return nil, err
	}
	res.Stats.RefineWall = time.Since(refineStart)
	dbAfter := t.DB.Stats()
	idxAfter := t.Index.Stats()
	res.Stats.Results = len(res.Matches)
	res.Stats.DataReads = dbAfter.Reads - dbBefore.Reads
	res.Stats.DataMisses = dbAfter.Misses - dbBefore.Misses
	res.Stats.DataSeqMisses = dbAfter.SeqMisses - dbBefore.SeqMisses
	res.Stats.IndexReads = idxAfter.Reads - idxBefore.Reads
	res.Stats.IndexMisses = idxAfter.Misses - idxBefore.Misses
	res.Stats.IndexSeqMisses = idxAfter.SeqMisses - idxBefore.SeqMisses
	res.Stats.Wall = time.Since(start)
	return res, nil
}

// NearestK returns the k sequences with the smallest exact DTW distance to
// q (an extension enabled by Dtw-lb being a true lower bound): candidates
// stream from the index in lower-bound order and refinement stops once the
// next lower bound exceeds the current k-th best exact distance.
func (t *TWSimSearch) NearestK(q seq.Sequence, k int) ([]Match, error) {
	return t.NearestKShared(q, k, nil)
}

// NearestKShared is NearestK with an optional cross-partition pruning bound
// (see SharedBound). The walk stops as soon as the next lower bound exceeds
// the tighter of the local k-th-best distance and the shared bound, and the
// local k-th-best is published to the shared bound as it improves, so
// concurrent walks over disjoint shards prune one another. With a nil bound
// this is exactly NearestK. The returned matches are the walk's survivors
// (at most k, ascending); under a shared bound they are a superset-filter
// for the merged top-k, not necessarily the partition's own true top-k.
func (t *TWSimSearch) NearestKShared(q seq.Sequence, k int, shared *SharedBound) ([]Match, error) {
	ms, _, err := t.NearestKSharedStats(q, k, shared)
	return ms, err
}

// NearestKSharedStats is NearestKShared with the query's work counters
// returned alongside the matches — the serving layer accumulates them into
// its exported totals and latency histograms, and the sharded engine into
// its per-shard skew breakdown. Candidates counts every streamed candidate
// that was actually fetched and evaluated, so the conservation law
// Candidates = ΣPruned + DTWCalls holds for k-NN exactly as for range
// search. Wall and RefineWall cover the whole walk (filtering and
// refinement interleave in a k-NN walk, so there is no separate filter
// phase to time).
func (t *TWSimSearch) NearestKSharedStats(q seq.Sequence, k int, shared *SharedBound) ([]Match, QueryStats, error) {
	var stats QueryStats
	start := time.Now()
	ms, err := t.nearestKShared(q, k, shared, &stats)
	stats.Wall = time.Since(start)
	stats.RefineWall = stats.Wall
	stats.Results = len(ms)
	return ms, stats, err
}

// envOrdering reports whether the envelope-ordered k-NN tier is active for
// this query: the walk re-keys candidates by max(mindist, LB_PAA) and the
// refine loop seeds its cutoff from aligned-path upper bounds. Off when
// the cascade is off (NoCascade keeps the brute-force baseline honest) or
// explicitly disabled for A/B verification.
func (t *TWSimSearch) envOrdering(q seq.Sequence) bool {
	return !t.NoCascade && !t.NoEnvOrder && len(q) > 0
}

// knnWalk runs the index walk for one k-NN query: fn receives candidates in
// non-decreasing key order, where the key is comparableLB(Base, L∞ mindist)
// raised — when envelope ordering is enabled and envelopes are stored — to
// max(·, LB_PAA(Q, stored envelope)). Both halves of the max lower-bound
// the candidate's (banded) DTW distance in comparable space, so a stop on
// `key > cutoff` dismisses only candidates whose exact distance is already
// above the cutoff (DESIGN.md §12), just earlier than the mindist alone
// allows. With ordering off (or no envelopes) the same keyed walk runs with
// a nil sharpener, so the stream is the transformed legacy order and the
// frontier counters stay comparable across modes. The walk's frontier
// counters land in stats when it finishes.
func (t *TWSimSearch) knnWalk(q seq.Sequence, fq seq.Feature, stats *QueryStats,
	fn func(id seq.ID, key float64) bool) error {
	xform := func(d float64) float64 { return comparableLB(t.Base, d) }
	var sharpen func(id seq.ID) float64
	if t.envOrdering(q) && t.Envs.Len() > 0 {
		pruner := newPAAPruner(q, t.Base, t.Band)
		sharpen = func(id seq.ID) float64 {
			if pe, ok := t.Envs.Get(id); ok {
				return pruner.lbPAA(&pe)
			}
			return 0
		}
	}
	ws, err := t.Index.NearestWalkKeyed(fq, xform, sharpen, fn)
	stats.addKNNWalk(ws)
	return err
}

// nearestKShared is NearestKShared with the per-tier work counters
// exposed. Once k survivors exist the cutoff is finite and every candidate
// runs the full cascade against it (and against the cross-shard bound when
// present), so the tiers tighten as the search proceeds.
//
// The walk streams candidates in ascending lower-bound order, so the stop
// test compares the base-comparable form of the bound (squared for L2Sq,
// where a single matched pair contributes its squared difference to the
// additive total) against the cutoff: the comparable bound is monotone in
// the walk order, so stopping dismisses only candidates whose exact
// distance is already above the cutoff. The seed compared the raw bound,
// which for L2Sq cutoffs < 1 kept walking (and fetching) candidates a
// sound bound dismisses — and, worse, was the same unsquared comparison
// the range filter made (see filterRadius).
func (t *TWSimSearch) nearestKShared(q seq.Sequence, k int, shared *SharedBound, stats *QueryStats) ([]Match, error) {
	fq, err := seq.ExtractFeature(q)
	if err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, nil
	}
	if t.Workers > 1 {
		return t.nearestKParallel(q, fq, k, t.Workers, shared, stats)
	}
	c := newCascade(q, t.Base, t.Band, t.Envs, t.NoCascade)
	// Deferred resolution pays only where the Tier 1 bounds are sharp: for
	// banded queries the banded Keogh/Improved chain tracks the exact DP
	// closely and the DTW-call floor drops ~35% (BENCH_knn.json). Unbanded
	// bounds are too loose to dismiss anything the immediate loop would
	// not, and the loose aligned-path cutoff just makes the corridor
	// refiner run its pre-passes for nothing — so unbanded queries keep
	// the immediate-refine loop (the walk sharpening above still applies).
	var ub *ubTracker
	var dq deferHeap
	if t.envOrdering(q) && t.Band >= 1 {
		ub = newUBTracker(k)
	}
	var best []Match // sorted ascending by Dist
	cutoffNow := func() float64 {
		cutoff := math.Inf(1)
		if len(best) == k {
			cutoff = best[k-1].Dist
		}
		if ub != nil {
			if u := ub.Kth(); u < cutoff {
				cutoff = u
			}
		}
		if shared != nil {
			if g := shared.Load(); g < cutoff {
				cutoff = g
			}
		}
		return cutoff
	}
	admit := func(id seq.ID, d float64) {
		best = append(best, Match{ID: id, Dist: d})
		sortMatches(best)
		if len(best) > k {
			best = best[:k]
		}
		if shared != nil && len(best) == k {
			shared.Update(best[k-1].Dist)
		}
	}
	var walkErr error
	err = t.knnWalk(q, fq, stats, func(id seq.ID, key float64) bool {
		if cerr := ctxErr(t.Ctx); cerr != nil {
			walkErr = cerr
			return false
		}
		cutoff := cutoffNow()
		if key > cutoff {
			return false // every later candidate has Dtw >= key > cutoff
		}
		// Tier 0.5 runs before the fetch; a candidate it dismisses is still
		// a candidate, so count it here to keep Candidates = ΣPruned +
		// DTWCalls (unpruned candidates are counted after the fetch, where
		// dangling entries are excluded as before).
		if !c.admitEnvelope(id, cutoff, stats) {
			stats.Candidates++
			return true
		}
		s, err := t.DB.Get(id)
		if errors.Is(err, seqdb.ErrDeleted) || errors.Is(err, seqdb.ErrNotFound) {
			return true // dangling index entry; skip, do not fail the walk
		}
		if err != nil {
			walkErr = err
			return false
		}
		stats.Candidates++
		if ub == nil {
			// Ordering off (or cascade off): the legacy immediate-refine
			// loop — full DTW while the cutoff is infinite, the cascade
			// afterwards.
			var d float64
			if math.IsInf(cutoff, 1) {
				stats.DTWCalls++
				d = c.exactDistance(s)
			} else {
				var ok bool
				d, ok = c.verify(s, cutoff, stats)
				if !ok {
					return true
				}
			}
			admit(id, d)
			return true
		}
		// Envelope-ordered: no exact DP runs during the walk. The
		// candidate's aligned-path upper bound feeds the k-smallest-UB
		// tracker, whose Kth() keeps the cutoff finite (and the walk stop
		// live) without a single DTW call; the cascade's Tier 1 bounds
		// either dismiss the candidate now or become its defer key, and the
		// exact DP runs later, in ascending strongest-LB order, against a
		// near-final cutoff (DESIGN.md §12).
		if u, ok := c.upperBoundAligned(s); ok {
			if w := ub.Add(u); w < cutoff {
				cutoff = w
				if shared != nil {
					// Kth() bounds this partition's k-th exact distance,
					// which bounds the global one — a valid shared update
					// long before any exact distance exists.
					shared.Update(w)
				}
			}
		}
		lb, tier, pruned := c.bound(s, cutoff, stats)
		if pruned {
			return true
		}
		// The walk key is itself a lower bound (Tiers 0/0.5) and sometimes
		// beats the Tier 1 chain; the defer key is the max of everything
		// known, so resolve-time dismissal loses nothing the walk proved.
		if key > lb {
			lb, tier = key, tierWalkKey
		}
		dq.push(deferred{id: id, s: s, lb: lb, tier: tier})
		// A deferred candidate whose bound is ≤ the current walk key is the
		// global minimum remaining lower bound (walk keys only ascend), so
		// resolving it now IS the ascending-LB order — and its exact
		// distance replaces the UB cutoff with a tighter one, shortening
		// the walk.
		for len(dq) > 0 && dq[0].lb <= key {
			top := dq.pop()
			cutoff := cutoffNow()
			if top.lb > cutoff {
				creditTier(top.tier, stats)
				continue
			}
			if d, ok := c.verifyDP(top.s, cutoff, stats); ok {
				admit(top.id, d)
			}
		}
		return true
	})
	if walkErr != nil {
		return nil, walkErr
	}
	if err != nil {
		return nil, err
	}
	// Resolve deferred candidates in ascending strongest-LB order: the
	// cutoff — min(k-th exact of resolved, k-th UB, shared) — is near its
	// final value from the first pop, so each pop either proves the
	// candidate out on its Tier 1 bound or runs the DP the search truly
	// cannot avoid.
	for len(dq) > 0 {
		if err := ctxErr(t.Ctx); err != nil {
			return nil, err
		}
		top := dq.pop()
		cutoff := cutoffNow()
		if top.lb > cutoff {
			creditTier(top.tier, stats)
			continue
		}
		d, ok := c.verifyDP(top.s, cutoff, stats)
		if !ok {
			continue
		}
		admit(top.id, d)
	}
	return best, nil
}
