package core

import (
	"fmt"

	"repro/internal/seq"
	"repro/internal/seqdb"
)

// RepairStats summarizes what an Open-time reconciliation (or an explicit
// Repair call) had to do to restore the store/index agreement the paper's
// no-false-dismissal guarantee depends on.
type RepairStats struct {
	// LiveSequences is the number of live heap records scanned.
	LiveSequences int
	// IndexedBefore is the number of index entries found before repair.
	IndexedBefore int
	// Orphans is the number of live heap records that had no index entry
	// and were re-indexed (e.g. a crash between append and insert).
	Orphans int
	// Dangling is the number of index entries with no live heap record
	// behind them (deleted sequences, duplicates) that were removed.
	Dangling int
	// Mismatched is the number of index entries whose stored point
	// disagreed with the record's actual feature vector and were re-keyed.
	Mismatched int
	// Rebuilt reports that the index could not be opened or walked at all
	// and was rebuilt from scratch by scanning the heap.
	Rebuilt bool
}

// Repaired reports whether the reconciliation changed anything.
func (rs RepairStats) Repaired() bool {
	return rs.Rebuilt || rs.Orphans+rs.Dangling+rs.Mismatched > 0
}

// String renders a one-line human-readable summary.
func (rs RepairStats) String() string {
	if rs.Rebuilt {
		return fmt.Sprintf("index rebuilt from %d live sequences", rs.LiveSequences)
	}
	if !rs.Repaired() {
		return fmt.Sprintf("consistent: %d sequences indexed", rs.LiveSequences)
	}
	return fmt.Sprintf("repaired: %d orphans re-indexed, %d dangling removed, %d re-keyed (%d live, %d indexed before)",
		rs.Orphans, rs.Dangling, rs.Mismatched, rs.LiveSequences, rs.IndexedBefore)
}

// scanFeatures extracts the feature vector of every live heap record.
func scanFeatures(store *seqdb.DB) (map[seq.ID]seq.Feature, error) {
	features := make(map[seq.ID]seq.Feature, store.Len())
	err := store.Scan(func(id seq.ID, s seq.Sequence) error {
		f, err := seq.ExtractFeature(s)
		if err != nil {
			return fmt.Errorf("core: record %d: %w", id, err)
		}
		features[id] = f
		return nil
	})
	if err != nil {
		return nil, err
	}
	return features, nil
}

// Reconcile diffs the feature index against the live heap records and
// patches the index in place: orphaned records are re-indexed, dangling and
// duplicate entries deleted, and mis-keyed entries re-inserted at the
// record's true feature point. After a nil return, every live sequence is
// indexed exactly once at its current feature vector, so searches are again
// free of false dismissal (Theorems 1-2).
func Reconcile(store *seqdb.DB, index *FeatureIndex) (RepairStats, error) {
	var rs RepairStats
	features, err := scanFeatures(store)
	if err != nil {
		return rs, err
	}
	rs.LiveSequences = len(features)
	entries, err := index.Entries()
	if err != nil {
		return rs, fmt.Errorf("core: walking index: %w", err)
	}
	rs.IndexedBefore = len(entries)

	// First pass: remove every entry that is dangling (no live record),
	// duplicated, or keyed at the wrong point. Deletions are applied after
	// the walk above, never during it.
	matched := make(map[seq.ID]bool, len(entries))
	for _, e := range entries {
		f, live := features[e.ID]
		switch {
		case !live || matched[e.ID]:
			if _, err := index.DeleteEntry(e.ID, e.Point); err != nil {
				return rs, fmt.Errorf("core: removing dangling entry %d: %w", e.ID, err)
			}
			rs.Dangling++
		case e.Point != f.Vector():
			if _, err := index.DeleteEntry(e.ID, e.Point); err != nil {
				return rs, fmt.Errorf("core: removing stale entry %d: %w", e.ID, err)
			}
			if err := index.InsertFeature(e.ID, f); err != nil {
				return rs, fmt.Errorf("core: re-keying entry %d: %w", e.ID, err)
			}
			rs.Mismatched++
			matched[e.ID] = true
		default:
			matched[e.ID] = true
		}
	}

	// Second pass: index every live record the index did not know about.
	// IDs are walked in order for deterministic repair.
	for id := seq.ID(0); int(id) < store.NumRecords(); id++ {
		f, live := features[id]
		if !live || matched[id] {
			continue
		}
		if err := index.InsertFeature(id, f); err != nil {
			return rs, fmt.Errorf("core: re-indexing orphan %d: %w", id, err)
		}
		rs.Orphans++
	}
	return rs, nil
}

// RebuildIndex constructs a fresh feature index from the live heap records
// via an STR bulk load — the recovery of last resort when the existing
// index file cannot even be opened.
func RebuildIndex(store *seqdb.DB, opts IndexOptions) (*FeatureIndex, RepairStats, error) {
	rs := RepairStats{Rebuilt: true}
	index, err := NewFeatureIndex(opts)
	if err != nil {
		return nil, rs, err
	}
	features, err := scanFeatures(store)
	if err != nil {
		index.Close()
		return nil, rs, err
	}
	rs.LiveSequences = len(features)
	ids := make([]seq.ID, 0, len(features))
	for id := seq.ID(0); int(id) < store.NumRecords(); id++ {
		if _, ok := features[id]; ok {
			ids = append(ids, id)
		}
	}
	fs := make([]seq.Feature, len(ids))
	for i, id := range ids {
		fs[i] = features[id]
	}
	if err := index.BulkLoad(ids, fs); err != nil {
		index.Close()
		return nil, rs, err
	}
	return index, rs, nil
}
