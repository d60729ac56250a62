// Package twsim is an index-based similarity search engine for large
// sequence databases supporting time warping, reproducing Kim, Park & Chu,
// "An Index-Based Approach for Similarity Search Supporting Time Warping in
// Large Sequence Databases" (ICDE 2001).
//
// A twsim.DB stores numeric sequences of arbitrary (and differing) lengths
// in a paged heap file and maintains the paper's 4-dimensional feature
// index: each sequence S contributes the time-warping-invariant point
// (First(S), Last(S), Greatest(S), Smallest(S)) to an R-tree. Range queries
// under the time warping distance run as a square range query on the index
// using the lower-bound metric Dtw-lb followed by exact dynamic-programming
// refinement — guaranteed free of false dismissal (the paper's Theorems 1
// and 2) while touching only a small fraction of the database.
//
// # Quick start
//
//	db, _ := twsim.OpenMem(twsim.Options{})
//	defer db.Close()
//	id, _ := db.Add([]float64{20, 21, 21, 20, 20, 23, 23, 23})
//	_ = id
//	res, _ := db.Search([]float64{20, 20, 21, 20, 23}, 1.5)
//	for _, m := range res.Matches {
//		fmt.Println(m.ID, m.Dist)
//	}
//
// Beyond the paper's range search the package provides exact k-nearest-
// neighbor search (enabled by Dtw-lb being a true lower bound), direct
// access to the DTW distance family (Distance, DistanceWithin,
// BandDistance, warping paths), and the paper's evaluated baselines for
// benchmarking (see the Baseline* constructors).
//
// # Query API
//
// DB and ShardedDB answer queries through the same five methods. SearchCtx
// (range) and NearestKCtx (k-NN) take a context and a Sakoe–Chiba band
// half-width and return the full Result; SearchBatchCtx runs many range
// queries concurrently; Search and NearestK are the default-band forms.
// Every query passes one shared path — input validation (rejections wrap
// ErrInvalidQuery), the whole-query result cache, Options.QueryDeadline,
// the request ID, and the slow-query log — and the Backend interface
// carries just SearchCtx and NearestKCtx.
//
// # Query pipeline
//
// Candidate refinement runs through a tiered cascade of true lower bounds,
// cheapest first: LB_Kim re-checked on the stored index point (before the
// heap fetch), LB_Keogh against the query's global envelope, the completed
// two-sided Yi bound, and finally a sparse dynamic program that keeps one
// interval of DP cells per row whose exact value stays within the cutoff —
// rejecting hopeless candidates at a fraction of a full evaluation and
// producing the exact distance for survivors in the same pass. Every tier
// preserves the no-false-dismissal guarantee, results are bit-identical to
// running the plain DP on every candidate (Options.DisableCascade restores
// that behavior for comparison), and the DP kernel reuses pooled rows, so
// steady-state refinement performs no allocations. Result.Stats reports
// per-tier dismissal counters alongside the exact-DTW call count.
//
// # Crash consistency
//
// The no-false-dismissal guarantee only holds while the heap file and the
// feature index agree, so the write path keeps them in lockstep:
//
//   - Add appends to the heap first and indexes second; when indexing
//     fails the append is rolled back, so a failed Add can simply be
//     retried and never leaves a half-written sequence behind.
//   - AddAll is all-or-nothing: on a mid-batch failure every appended
//     sequence (and any index entry already made for it) is rolled back.
//     The STR bulk load used on an empty database is internally atomic.
//   - Open reconciles after a crash. The heap is the source of truth and
//     the index is always derivable from it: orphaned heap records (a
//     crash between append and index insert) are re-indexed, dangling
//     index entries are deleted, and an unopenable or missing index file
//     is rebuilt outright. A directory created by the removed flat index
//     engine (feature.flat, no feature.rtree) takes that path, and Open
//     then deletes the stale feature.flat. LastRepair reports what was
//     fixed.
//   - Verify is the read-only integrity check (fsck); Repair is its
//     fixing counterpart, usable on a live database.
//
// Searches additionally skip index entries whose heap record is missing,
// so a not-yet-repaired database degrades to extra filtering work rather
// than failed or incorrect queries.
//
// # Sharding
//
// ShardedDB hash-partitions a database into N shards, each a complete DB
// (own heap file, R-tree, and buffer pool), and fans every query out over
// all of them in parallel, merging the per-shard results into the same
// answer a single DB would return. Sequence IDs encode their shard
// (ShardID(id) = id mod N), writers lock only their target shard, and
// k-nearest-neighbor fan-out shares an atomic best-k bound across shards
// so each prunes with the globally tightest cutoff. Both DB and ShardedDB
// satisfy the Backend interface; CreateSharded, OpenSharded, and
// OpenMemSharded mirror the single-database constructors, with per-shard
// crash reconciliation on open.
//
// # Intra-query parallelism and caching
//
// Options.RefineWorkers sets the per-query refinement budget: the
// candidate fetch, lower-bound cascade, and exact DTW verification run on
// up to that many goroutines (0 selects GOMAXPROCS; 1 is the exact serial
// path). On a sharded database the budget is divided among the shards a
// query fans out to, so fan-out times refine workers never exceeds the
// budget. Results are bit-identical at every setting — for range queries
// the fixed tolerance makes each candidate's verdict order-independent,
// and for k-NN the shrinking cutoff is only ever read conservatively
// (stale reads admit extra candidates, never dismiss true neighbors).
//
// The storage layer supports the worker pool with a lock-striped buffer
// pool (pages hash to independently locked stripes, so concurrent faults
// on different pages do not serialize) and an optional decoded-sequence
// cache (Options.SeqCacheBytes) whose hits skip page I/O and
// deserialization entirely; DB.StorageStats exposes wait-free hit-ratio
// counters for both.
//
// # Input validation and observability
//
// Sequences must be finite: every write and query entry point rejects
// data containing NaN or ±Inf with ErrNonFinite. The exactness guarantees
// are only defined over the reals — a NaN slips through the kernels'
// ordered comparisons as if it were −∞ or +∞ (depending on the kernel)
// and through the R-tree's rectangle predicates arbitrarily, so a single
// stored NaN once made two provably-exact search methods silently return
// different answers. Verify and CheckInvariants flag non-finite features
// that reach the index some other way (DESIGN.md §10 has the full story).
//
// For production serving, every query Result carries a process-unique
// RequestID, and Options.SlowQueryThreshold enables a slow-query log (one
// flat key=value line per offending query, carrying that same request ID
// plus per-phase timings and the cascade's work counters; destination
// Options.SlowQueryLogger, default log.Default()). QueryStats splits wall
// time into FilterWall and RefineWall, and the HTTP server in
// internal/server exports the whole pipeline — request counters, latency
// histograms, cascade/pool/cache counters — as a Prometheus /metrics
// endpoint built on the dependency-free internal/obs package.
package twsim
