package twsim

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/seq"
)

// ErrInvalidQuery wraps every rejection of a query's own inputs: an empty
// or non-finite query (the latter also matches ErrNonFinite), a negative
// tolerance, or a negative band half-width. Serving layers map it to a
// client error; any other query failure is the database's fault. Test with
// errors.Is.
var ErrInvalidQuery = errors.New("twsim: invalid query")

// queryKind tags the two query kinds; the byte doubles as the kind field of
// result-cache keys.
type queryKind byte

const (
	rangeQuery queryKind = 'r'
	knnQuery   queryKind = 'k'
)

// querySpec is one query as the shared query path sees it.
type querySpec struct {
	kind    queryKind
	values  []float64
	epsilon float64 // range queries
	k       int     // k-NN queries
	band    int
}

// validate rejects invalid inputs at the API boundary, each wrapped in
// ErrInvalidQuery. A band of 0 is the unconstrained distance and ≥ 1 a
// Sakoe–Chiba half-width; negative values are an error here (the internal
// dtw package's r<0 = unconstrained convention is deliberately not exposed
// — the zero value must mean "historical behavior").
func (q querySpec) validate() error {
	if len(q.values) == 0 {
		return fmt.Errorf("%w: %w", ErrInvalidQuery, seq.ErrEmpty)
	}
	if err := seq.CheckFinite(q.values); err != nil {
		return fmt.Errorf("%w: %w", ErrInvalidQuery, err)
	}
	if q.epsilon < 0 {
		return fmt.Errorf("%w: negative tolerance %g", ErrInvalidQuery, q.epsilon)
	}
	if q.band < 0 {
		return fmt.Errorf("%w: negative band half-width %d", ErrInvalidQuery, q.band)
	}
	return nil
}

// logKind names the query kind in its slow-query line.
func (q querySpec) logKind() string {
	if q.kind == knnQuery {
		return "knn"
	}
	return "search"
}

// queryEngine is the engine-specific half of a query: *DB runs it on its
// own index and heap, *ShardedDB fans it out across shards. Neither
// execute method validates, caches, applies the deadline, or logs — the
// shared queryPath does all of that, once.
type queryEngine interface {
	// Generation is the write generation result-cache entries are stamped
	// with (see DB.Generation).
	Generation() uint64
	execute(ctx context.Context, q querySpec) (*Result, error)
	executeBatch(ctx context.Context, queries [][]float64, epsilon float64, band, parallelism int) ([]*Result, error)
}

// queryPath is the front half every query of a DB or ShardedDB passes
// through; both embed it. It owns the options, the base distance and the
// whole-query result cache.
type queryPath struct {
	opts   Options
	base   Base
	rcache *core.ResultCache // nil when Options.ResultCacheBytes == 0
}

func newQueryPath(opts Options) queryPath {
	return queryPath{opts: opts, base: opts.Base, rcache: core.NewResultCache(opts.ResultCacheBytes)}
}

// run answers one query: validate, consult the result cache, attach the
// deadline, execute on e, store the answer, stamp the request ID and emit
// the slow-query line. The cache-coherence rule lives here alone: the
// write generation is read before any index or heap read of the query, a
// hit must carry exactly that generation, and a computed answer is stored
// under it — so a write overlapping the query makes its entry stale on
// arrival (DESIGN.md §13.2).
func (p *queryPath) run(ctx context.Context, e queryEngine, q querySpec) (*Result, error) {
	if err := q.validate(); err != nil {
		return nil, err
	}
	var key string
	var preGen uint64
	if p.rcache != nil {
		start := time.Now()
		key = core.ResultCacheKey(byte(q.kind), p.base, q.band, q.epsilon, q.k, q.values)
		preGen = e.Generation() // before any index/heap read of this query
		if ms, ok := p.rcache.Get(key, preGen); ok {
			return p.finish(q.logKind(), q, cachedResult(ms, start)), nil
		}
	}
	ctx, cancel := p.opts.applyDeadline(ctx)
	defer cancel()
	res, err := e.execute(ctx, q)
	if err != nil {
		return nil, err
	}
	if p.rcache != nil {
		p.rcache.Put(key, preGen, res.Matches)
	}
	return p.finish(q.logKind(), q, res), nil
}

// runBatch answers a batch of range queries through e's batch executor:
// every query is validated upfront, the deadline bounds the whole batch
// (attached once, not per query), and each Result gets its own request ID
// and slow-query line. The result cache is not consulted — batch
// throughput is dominated by cold queries, and per-query stamping would
// serialize on the cache stripes.
func (p *queryPath) runBatch(ctx context.Context, e queryEngine, queries [][]float64, epsilon float64, band, parallelism int) ([]*Result, error) {
	for i, values := range queries {
		if err := (querySpec{kind: rangeQuery, values: values, epsilon: epsilon, band: band}).validate(); err != nil {
			return nil, fmt.Errorf("twsim: query %d: %w", i, err)
		}
	}
	ctx, cancel := p.opts.applyDeadline(ctx)
	defer cancel()
	out, err := e.executeBatch(ctx, queries, epsilon, band, parallelism)
	if err != nil {
		return nil, err
	}
	for i, res := range out {
		p.finish("batch", querySpec{kind: rangeQuery, values: queries[i], epsilon: epsilon, band: band}, res)
	}
	return out, nil
}

// finish stamps a fresh request ID on res and logs it if it was slow.
func (p *queryPath) finish(kind string, q querySpec, res *Result) *Result {
	res.RequestID = nextRequestID()
	p.opts.logSlowQuery(kind, res.RequestID, q, res.Stats)
	return res
}

// applyDeadline attaches Options.QueryDeadline to the caller's context (nil
// means no caller context). The returned cancel must always be called; with
// no deadline configured it is a no-op and the context passes through
// untouched.
func (o Options) applyDeadline(ctx context.Context) (context.Context, context.CancelFunc) {
	if o.QueryDeadline <= 0 {
		return ctx, func() {}
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithTimeout(ctx, o.QueryDeadline)
}

// cachedResult assembles the Result a cache hit returns: the stored matches
// (already a private copy) and zero work counters — no index walk, fetch,
// or DTW ran, so the conservation law holds trivially as 0 = 0.
func cachedResult(ms []Match, start time.Time) *Result {
	res := &Result{Matches: ms, CacheHit: true}
	res.Stats.Results = len(ms)
	res.Stats.Wall = time.Since(start)
	return res
}
