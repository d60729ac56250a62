package core

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/seq"
	"repro/internal/seqdb"
)

// refineParallel is the bounded-worker form of refine/refineIDs. Workers
// pull candidate indices from a shared atomic counter; each worker owns a
// private cascade (the pooled refiner is not concurrency-safe) and a
// private QueryStats, summed into stats at the end so the conservation law
// Candidates = ΣPruned + DTWCalls holds exactly as in the serial loop.
//
// Results are bit-identical to the serial loop: the cutoff is the fixed
// tolerance ε, so each candidate's verdict and exact distance are
// independent of evaluation order; accepted matches land in a slot array
// indexed by candidate position and are sorted by (Dist, ID) at the end,
// the same final order sortMatches gives the serial path.
//
// candAt returns the i-th candidate's ID, its stored index point, and
// whether a point exists (Tier 0 is skipped for bare-ID filters).
//
// ctx is checked once per dispatch slot — the moment a worker claims its
// next candidate index, before any fetch or DP — so a cancelled query stops
// issuing DTW calls after at most one in-flight candidate per worker.
func refineParallel(ctx context.Context, db *seqdb.DB, base seq.Base, q seq.Sequence, epsilon float64,
	n int, candAt func(int) (seq.ID, [4]float64, bool),
	noCascade bool, band int, envs *EnvStore, workers int, stats *QueryStats) ([]Match, error) {
	if workers > n {
		workers = n
	}
	type slot struct {
		m  Match
		ok bool
	}
	slots := make([]slot, n)
	workerStats := make([]QueryStats, workers)
	workerErrs := make([]error, workers)
	errAt := make([]int, workers)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ws := &workerStats[w]
			c := newCascade(q, base, band, envs, noCascade)
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				if cerr := ctxErr(ctx); cerr != nil {
					workerErrs[w], errAt[w] = cerr, i
					failed.Store(true)
					return
				}
				id, pt, hasPt := candAt(i)
				if hasPt && !c.admitPoint(pt, epsilon, ws) {
					continue
				}
				if !c.admitEnvelope(id, epsilon, ws) {
					continue
				}
				s, err := db.Get(id)
				if errors.Is(err, seqdb.ErrDeleted) || errors.Is(err, seqdb.ErrNotFound) {
					continue
				}
				if err != nil {
					workerErrs[w], errAt[w] = err, i
					failed.Store(true)
					return
				}
				if d, ok := c.verify(s, epsilon, ws); ok {
					slots[i] = slot{m: Match{ID: id, Dist: d}, ok: true}
				}
			}
		}(w)
	}
	wg.Wait()
	if failed.Load() {
		// Surface the failure at the lowest candidate index so the reported
		// error does not depend on goroutine scheduling.
		firstErr, first := error(nil), n
		for w, err := range workerErrs {
			if err != nil && errAt[w] < first {
				firstErr, first = err, errAt[w]
			}
		}
		return nil, firstErr
	}
	for w := range workerStats {
		stats.Add(workerStats[w])
	}
	var matches []Match
	for i := range slots {
		if slots[i].ok {
			matches = append(matches, slots[i].m)
		}
	}
	sortMatches(matches)
	return matches, nil
}

// knnCand is one index-walk candidate handed to a verification worker.
type knnCand struct {
	id seq.ID
	lb float64
}

// nearestKParallel is nearestKShared with the verification fanned out to a
// bounded worker pool. The index walk itself stays sequential (it is cheap
// and must stream candidates in ascending lower-bound order); workers fetch
// and verify concurrently against the shrinking cutoff.
//
// Soundness (no false dismissal) despite workers observing momentarily
// stale cutoffs: the cutoff — min(local k-th best, k-th smallest
// aligned-path upper bound, shared bound) — only ever shrinks (each
// component is monotone non-increasing), so any value a worker or the
// walk-stop test reads is ≥ the final cutoff. A true top-k member m has Dtw(m) ≤ final k-th best ≤ every
// cutoff ever observed, so the walk cannot stop before streaming m
// (comparableLB(m) ≤ Dtw(m) ≤ cutoff) and m's verification cannot reject
// it (verify accepts at ≤ cutoff). Staleness therefore only admits extra
// candidates, which the final sort-and-truncate removes; the returned set
// is the (Dist, ID)-ordered top-k of all streamed candidates — exactly the
// serial result, bit for bit.
func (t *TWSimSearch) nearestKParallel(q seq.Sequence, fq seq.Feature, k, workers int,
	shared *SharedBound, stats *QueryStats) ([]Match, error) {
	var (
		mu   sync.Mutex
		best []Match // sorted ascending by (Dist, ID), ≤ k entries
		ub   *ubTracker
	)
	if t.envOrdering(q) && t.Band >= 1 {
		ub = newUBTracker(k)
	}
	cutoff := func() float64 {
		mu.Lock()
		c := math.Inf(1)
		if len(best) == k {
			c = best[k-1].Dist
		}
		if ub != nil {
			if u := ub.Kth(); u < c {
				c = u
			}
		}
		mu.Unlock()
		if shared != nil {
			if g := shared.Load(); g < c {
				c = g
			}
		}
		return c
	}

	work := make(chan knnCand, workers*2)
	workerStats := make([]QueryStats, workers)
	workerErrs := make([]error, workers)
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ws := &workerStats[w]
			c := newCascade(q, t.Base, t.Band, t.Envs, t.NoCascade)
			for cand := range work {
				if failed.Load() {
					continue // drain so the producer never blocks
				}
				if cerr := ctxErr(t.Ctx); cerr != nil {
					workerErrs[w] = cerr
					failed.Store(true)
					continue
				}
				// Tier 0.5 before the fetch; dismissed candidates still
				// count so Candidates = ΣPruned + DTWCalls holds.
				if !c.admitEnvelope(cand.id, cutoff(), ws) {
					ws.Candidates++
					continue
				}
				s, err := t.DB.Get(cand.id)
				if errors.Is(err, seqdb.ErrDeleted) || errors.Is(err, seqdb.ErrNotFound) {
					continue
				}
				if err != nil {
					workerErrs[w] = err
					failed.Store(true)
					continue
				}
				ws.Candidates++
				cut := cutoff()
				// The candidate's own aligned-path upper bound may tighten
				// the cutoff before its cascade runs; min(k-th exact, k-th
				// UB, shared) stays sound throughout (DESIGN.md §12).
				if ub != nil {
					if u, ok := c.upperBoundAligned(s); ok {
						mu.Lock()
						w := ub.Add(u)
						mu.Unlock()
						if w < cut {
							cut = w
						}
					}
				}
				var d float64
				if math.IsInf(cut, 1) {
					ws.DTWCalls++
					d = c.exactDistance(s)
				} else {
					var ok bool
					if d, ok = c.verify(s, cut, ws); !ok {
						continue
					}
				}
				mu.Lock()
				best = append(best, Match{ID: cand.id, Dist: d})
				sortMatches(best)
				if len(best) > k {
					best = best[:k]
				}
				if shared != nil && len(best) == k {
					shared.Update(best[k-1].Dist)
				}
				mu.Unlock()
			}
		}(w)
	}

	var ctxAbort error
	walkErr := t.knnWalk(q, fq, stats, func(id seq.ID, key float64) bool {
		if failed.Load() {
			return false
		}
		if cerr := ctxErr(t.Ctx); cerr != nil {
			ctxAbort = cerr
			return false
		}
		if key > cutoff() {
			return false // ascending keys: every later candidate is above too
		}
		work <- knnCand{id: id, lb: key}
		return true
	})
	close(work)
	wg.Wait()

	for w := range workerStats {
		stats.Add(workerStats[w])
	}
	for _, err := range workerErrs {
		if err != nil {
			return nil, err
		}
	}
	if walkErr != nil {
		return nil, walkErr
	}
	if ctxAbort != nil {
		return nil, ctxAbort
	}
	return best, nil
}
