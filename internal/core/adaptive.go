package core

import (
	"time"

	"repro/internal/seq"
	"repro/internal/seqdb"
)

// AdaptiveSearch is a cost-based hybrid of TW-Sim-Search and LB-Scan. The
// index range query always runs (it is cheap and exact); the *refinement*
// strategy is then chosen from the candidate count:
//
//   - few candidates: fetch them individually (random I/O), as in the
//     paper's Algorithm 1;
//   - many candidates: one sequential sweep over the heap file, evaluating
//     the exact DTW only at candidate IDs.
//
// At large tolerances the candidate set approaches the whole database and
// per-candidate random fetches lose to a sequential sweep (visible in
// Experiment 2's largest-tolerance row, where LB-Scan edges out plain
// TW-Sim-Search). The crossover follows from the cost model: a random
// fetch costs roughly Seek+Transfer per candidate record, a sweep costs
// Transfer per data page plus one seek. Either path returns exactly
// {S : Dtw(S,Q) ≤ ε}.
type AdaptiveSearch struct {
	DB    *seqdb.DB
	Index *FeatureIndex
	Base  seq.Base
	// Cost drives the refinement choice; the zero value means
	// DefaultCostModel.
	Cost CostModel
}

// Name implements Searcher.
func (a *AdaptiveSearch) Name() string { return "Adaptive" }

// Search implements Searcher.
func (a *AdaptiveSearch) Search(q seq.Sequence, epsilon float64) (*Result, error) {
	start := time.Now()
	cm := a.Cost
	if cm.Seek == 0 && cm.Transfer == 0 {
		cm = DefaultCostModel
	}
	dbBefore := a.DB.Stats()
	idxBefore := a.Index.Stats()
	fq, err := seq.ExtractFeature(q)
	if err != nil {
		return nil, err
	}
	entries, err := a.Index.RangeQueryEntries(fq, filterRadius(a.Base, epsilon))
	if err != nil {
		return nil, err
	}
	res := &Result{}
	res.Stats.Candidates = len(entries)

	if a.useSweep(len(entries), cm) {
		c := newCascade(q, a.Base, 0, nil, false)
		// Tier 0 runs while building the sweep's membership set, so pruned
		// candidates never even get their heap record inspected.
		candSet := make(map[seq.ID]bool, len(entries))
		for _, e := range entries {
			if c.admitPoint(e.Point, epsilon, &res.Stats) {
				candSet[e.ID] = true
			}
		}
		err = a.DB.Scan(func(id seq.ID, s seq.Sequence) error {
			if !candSet[id] {
				return nil
			}
			if d, ok := c.verify(s, epsilon, &res.Stats); ok {
				res.Matches = append(res.Matches, Match{ID: id, Dist: d})
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		sortMatches(res.Matches)
	} else {
		res.Matches, err = refine(nil, a.DB, a.Base, q, epsilon, entries, false, 0, nil, 1, &res.Stats)
		if err != nil {
			return nil, err
		}
	}

	dbAfter := a.DB.Stats()
	idxAfter := a.Index.Stats()
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

// useSweep decides whether a sequential sweep beats per-candidate fetches
// under the cost model.
func (a *AdaptiveSearch) useSweep(candidates int, cm CostModel) bool {
	n := a.DB.Len()
	if n == 0 || candidates == 0 {
		return false
	}
	// Average pages per sequence record (>= 1 page touched per fetch).
	pagesPerSeq := float64(a.DB.Bytes()) / float64(n) / 1024
	if pagesPerSeq < 1 {
		pagesPerSeq = 1
	}
	randomCost := float64(candidates) * (float64(cm.Seek) + pagesPerSeq*float64(cm.Transfer))
	totalPages := float64(a.DB.Bytes())/1024 + 1
	sweepCost := float64(cm.Seek) + totalPages*float64(cm.Transfer)
	return sweepCost < randomCost
}
