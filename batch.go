package twsim

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/seq"
	"repro/internal/workpool"
)

// SearchBatchCtx runs many range queries concurrently (the DB is safe for
// concurrent readers) under the band half-width band and returns one
// Result per query, in input order. parallelism <= 0 selects GOMAXPROCS.
// Every query is validated upfront (ErrInvalidQuery); the first execution
// error aborts the batch. Once ctx is done the dispatcher stops feeding
// queries, in-flight queries abandon at their next candidate boundary, and
// the whole batch fails with the context's error. Options.QueryDeadline,
// when set, bounds the whole batch. Each Result gets its own RequestID and
// slow-query line; the result cache is not consulted.
func (db *DB) SearchBatchCtx(ctx context.Context, queries [][]float64, epsilon float64, band, parallelism int) ([]*Result, error) {
	return db.runBatch(ctx, db, queries, epsilon, band, parallelism)
}

// executeBatch is the batch worker pool behind SearchBatchCtx
// (queryEngine); the queries are already validated.
func (db *DB) executeBatch(ctx context.Context, queries [][]float64, epsilon float64, band, parallelism int) ([]*Result, error) {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	out := make([]*Result, len(queries))
	// One worker per query already fills the machine; nesting intra-query
	// refine workers under that would oversubscribe, so each query runs
	// serially.
	err := workpool.Run(len(queries), parallelism, func(i int) error {
		res, err := db.searchWorkers(ctx, queries[i], epsilon, band, 1)
		if err != nil {
			return fmt.Errorf("twsim: query %d: %w", i, err)
		}
		out[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// CompactTo rewrites the live (non-deleted) sequences into a fresh database
// at dir, rebuilding the index with a bulk load. Sequence IDs are
// reassigned densely in the new database; the returned map carries
// old-ID → new-ID for every surviving sequence. The source database is not
// modified.
func (db *DB) CompactTo(dir string, opts Options) (*DB, map[ID]ID, error) {
	dst, err := Create(dir, opts)
	if err != nil {
		return nil, nil, err
	}
	mapping := make(map[ID]ID, db.store.Len())
	var values [][]float64
	var oldIDs []ID
	err = db.store.Scan(func(id seq.ID, s seq.Sequence) error {
		oldIDs = append(oldIDs, id)
		values = append(values, append([]float64(nil), s...))
		return nil
	})
	if err != nil {
		dst.Close()
		return nil, nil, err
	}
	if len(values) > 0 {
		first, err := dst.AddAll(values)
		if err != nil {
			dst.Close()
			return nil, nil, err
		}
		for i, old := range oldIDs {
			mapping[old] = first + ID(i)
		}
	}
	if err := dst.Flush(); err != nil {
		dst.Close()
		return nil, nil, err
	}
	return dst, mapping, nil
}
