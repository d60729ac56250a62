package twsim

import (
	"context"

	"repro/internal/core"
)

// Backend is the operation surface shared by the single-database engine
// (*DB) and the sharded engine (*ShardedDB). Servers and tools written
// against Backend run unchanged on either — and it is the seam a future
// multi-node engine will slot into.
//
// Concurrency: *ShardedDB is safe for fully concurrent use (writers are
// serialized per shard internally). *DB follows the library rule — safe
// for concurrent readers, writers need external serialization — so callers
// mixing writers must wrap it (internal/server does).
type Backend interface {
	// Add stores one sequence and returns its ID.
	Add(values []float64) (ID, error)
	// AddBatch stores a batch and returns every assigned ID in input
	// order. Unlike DB.AddAll, the IDs are not promised to be consecutive:
	// a sharded backend interleaves them across shards.
	AddBatch(values [][]float64) ([]ID, error)
	// Remove deletes a sequence, reporting whether it was present.
	Remove(id ID) (bool, error)
	// Get fetches a stored sequence.
	Get(id ID) ([]float64, error)
	// SearchCtx runs the paper's range similarity query under the
	// Sakoe–Chiba band half-width band (0 = unconstrained, ≥ 1 = banded).
	// A done context (client disconnect, deadline) abandons the query at
	// its next candidate boundary and returns the context's error;
	// Options.QueryDeadline, when set, caps execution time on top. A nil
	// context never cancels. Invalid inputs fail with ErrInvalidQuery.
	SearchCtx(ctx context.Context, query []float64, epsilon float64, band int) (*Result, error)
	// NearestKCtx runs the exact k-NN extension, governed like SearchCtx;
	// the Result carries the work counters and request ID so serving
	// layers export k-NN traffic into the same metrics as range searches.
	NearestKCtx(ctx context.Context, query []float64, k, band int) (*Result, error)
	// DefaultBand returns the band half-width queries run under when no
	// per-call override is given (Options.Band) — serving layers use it to
	// resolve requests that omit the band.
	DefaultBand() int
	// ResultCacheStats snapshots the whole-query result cache counters
	// (all zero when the cache is disabled).
	ResultCacheStats() core.ResultCacheStats
	// BuildSubseqIndex indexes sliding windows of the current contents for
	// subsequence matching (per shard, fanned out, for a sharded backend).
	BuildSubseqIndex(windowLens []int, step int) (*SubseqIndex, error)
	// Len returns the number of live sequences.
	Len() int
	// DataBytes returns the logical size of the stored data.
	DataBytes() int64
	// IndexPages returns the feature index size in pages.
	IndexPages() int
	// LastRepair reports what the Open-time reconciliation fixed.
	LastRepair() RepairStats
	// StorageStats snapshots the buffer pool and decoded-sequence cache
	// counters (summed over shards for a sharded backend).
	StorageStats() StorageStats
	// OpenDiagnostics returns the human-readable notes recorded while
	// opening the database (rebuild-on-open, reconciliation, sidecar
	// rebuilds). Empty for a clean open.
	OpenDiagnostics() []string
	// WALStats snapshots the write-ahead-log counters (summed over shards
	// for a sharded backend; all zero when the WAL is disabled).
	WALStats() WALStats
	// Verify runs the full heap/index integrity check.
	Verify() error
	// Flush persists all state.
	Flush() error
	// Close flushes and releases the database.
	Close() error
}

var (
	_ Backend = (*DB)(nil)
	_ Backend = (*ShardedDB)(nil)
)

// AddBatch stores a batch of sequences and returns the assigned IDs in
// input order — the Backend form of AddAll (which see for atomicity). For
// a single database the IDs are consecutive.
func (db *DB) AddBatch(values [][]float64) ([]ID, error) {
	first, err := db.AddAll(values)
	if err != nil {
		return nil, err
	}
	ids := make([]ID, len(values))
	for i := range ids {
		ids[i] = first + ID(i)
	}
	return ids, nil
}
