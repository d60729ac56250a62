package twsim

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fsx"
	"repro/internal/rtree"
	"repro/internal/seq"
	"repro/internal/seqdb"
	"repro/internal/wal"
)

// Base selects the per-element base distance inside the time warping
// distance (the paper's Dbase, §4.1).
type Base = seq.Base

// Base distance choices. The paper's similarity model uses BaseLInf; BaseL1
// is the classic additive DTW; BaseL2Sq accumulates squared differences.
const (
	BaseLInf = seq.LInf
	BaseL1   = seq.L1
	BaseL2Sq = seq.L2Sq
)

// ID identifies a stored sequence.
type ID = seq.ID

// ErrNonFinite is returned by every write and query entry point when a
// sequence or query contains a NaN or ±Inf element. Non-finite values are
// rejected at the boundary because they silently break the paper's
// no-false-dismissal guarantee: a NaN feature component makes the R-tree
// entry invisible to every range query (NaN comparisons are all false)
// while a sequential scan can still match the sequence — an index/scan
// divergence with no error anywhere. Test with errors.Is.
var ErrNonFinite = seq.ErrNonFinite

// Match is one search result: a sequence ID and its exact time warping
// distance to the query.
type Match = core.Match

// Result carries the matches of one query plus its work statistics.
type Result = core.Result

// QueryStats describes the work one query performed (candidates, exact DTW
// evaluations, page I/O, wall time).
type QueryStats = core.QueryStats

// StorageStats snapshots the storage-layer counters: the data heap's and
// feature index's buffer pools plus the decoded-sequence cache. Snapshots
// are wait-free and weakly consistent (see the core type's godoc).
type StorageStats = core.StorageStats

// CostModel converts buffer pool misses into modeled disk time.
type CostModel = core.CostModel

// SplitStrategy selects the R-tree overflow heuristic.
type SplitStrategy = rtree.SplitStrategy

// R-tree split strategies.
const (
	SplitQuadratic = rtree.QuadraticSplit
	SplitLinear    = rtree.LinearSplit
)

// Options configures a DB.
type Options struct {
	// Base is the per-element distance inside DTW. The zero value is
	// BaseLInf, the paper's model.
	Base Base
	// PageSize is the page size of both the data heap file and the index
	// (0 = 1 KB, the paper's setting).
	PageSize int
	// PoolPages is the buffer pool capacity of each file in pages (0 = 64).
	PoolPages int
	// Split is the R-tree split heuristic (default quadratic).
	Split SplitStrategy
	// DisableCascade turns off the tiered lower-bound cascade in the
	// refinement step, sending every index candidate straight to the exact
	// early-abandoning DTW. Matches and distances are bit-identical either
	// way — the cascade only skips work, never answers — so the flag exists
	// for benchmarking and verification, not correctness.
	DisableCascade bool
	// DisableEnvOrdering turns off the k-NN walk's envelope-sharpened
	// frontier ordering (candidates re-keyed by max(mindist, LB_PAA) before
	// surfacing), keeping the plain mindist stream. Matches and distances
	// are bit-identical either way — the ordering only fires the walk's stop
	// condition earlier — so the flag exists for benchmarking and
	// verification, not correctness. DisableCascade implies it.
	DisableEnvOrdering bool
	// RefineWorkers bounds the intra-query parallelism of the refinement
	// step (candidate fetch + cascade + exact DTW): 0 means GOMAXPROCS,
	// 1 restores the fully serial execution, and results are bit-identical
	// at every setting. On a sharded database this is the total budget one
	// query spends across the shards it fans out to, so fan-out × refine
	// parallelism never oversubscribes the machine.
	RefineWorkers int
	// Band is the default Sakoe–Chiba band half-width queries search under.
	// 0 (the zero value) answers the paper's unconstrained time warping
	// distance — the historical behavior. A value ≥ 1 makes every query
	// answer the banded distance BandDistance(S, Q, band) instead: only
	// warpings within the band are permissible, which both sharpens the
	// similarity model and unlocks the banded envelope cascade tiers
	// (LB_Keogh on the banded envelope and Lemire's LB_Improved). Negative
	// values are rejected at query time. Per-query overrides: the band
	// argument of SearchCtx, NearestKCtx, and SearchBatchCtx.
	//
	// Every search remains exact for the distance it answers: all filter
	// tiers lower-bound BandDistance (a band only removes permissible
	// warpings, so BandDistance ≥ Distance ≥ every unconstrained bound),
	// and banded results are bit-identical to a brute-force banded scan.
	Band int
	// SeqCacheBytes sizes the decoded-sequence cache (per shard, for a
	// sharded database): hot sequences are served from memory without page
	// I/O or deserialization. 0 disables the cache, keeping the paper's
	// per-query disk-access accounting exact — which is why it is opt-in.
	SeqCacheBytes int64
	// SlowQueryThreshold, when positive, makes every query whose wall time
	// reaches it emit one flat key=value log line (query kind, request ID,
	// query length, ε or k, per-phase timings, candidate and prune counts)
	// to SlowQueryLogger. 0 disables slow-query logging.
	SlowQueryThreshold time.Duration
	// SlowQueryLogger receives slow-query lines (nil = log.Default()). A
	// *log.Logger is safe for concurrent use, so one logger may serve many
	// databases.
	SlowQueryLogger *log.Logger
	// ResultCacheBytes sizes the whole-query result cache: a byte-budgeted
	// LRU of exact answers keyed by (query, kind, ε or k, band, base). A
	// hit returns the stored matches with zero index, heap, or
	// DTW work and a fresh RequestID. Coherence is by write generation:
	// every Add/AddAll/AddBatch/Remove/Repair bumps a per-database counter,
	// and an entry whose generation stamp is stale is discarded on lookup —
	// a cached answer is therefore always bit-identical to a recomputation
	// (see internal/core.ResultCache). 0 disables the cache. On a sharded
	// database the cache lives at the top level only (per-shard caches would
	// double the memory for no extra hits).
	ResultCacheBytes int64
	// QueryDeadline, when positive, bounds every query's execution: a query
	// exceeding it is abandoned at its next candidate boundary with
	// context.DeadlineExceeded. It composes with caller contexts (SearchCtx,
	// NearestKCtx, SearchBatchCtx): whichever expires first cancels. 0 means
	// no deadline.
	QueryDeadline time.Duration
	// WAL enables the group-commit write-ahead log on on-disk databases:
	// every acknowledged Add/AddBatch/Remove survives a crash (Open
	// replays the log tail over the heap), and concurrent writers share
	// fsyncs instead of paying one each. Ignored by in-memory databases,
	// which have nothing durable to protect. See internal/wal and
	// DESIGN.md §14.
	WAL bool
	// WALFlushInterval is how long the WAL committer lingers after the
	// first record of a batch before fsyncing, bounding write latency to
	// roughly the interval plus one fsync (0 = wal.DefaultFlushInterval,
	// 2ms; negative = fsync as soon as the committer wakes).
	WALFlushInterval time.Duration
	// WALFlushBytes flushes a WAL batch early once its pending bytes
	// exceed it (0 = wal.DefaultFlushBytes, 256 KiB).
	WALFlushBytes int
	// WALCheckpointBytes auto-checkpoints (full Flush + log reset) when
	// the log file grows past it, bounding replay time and the window a
	// replica can lag before needing a snapshot re-bootstrap
	// (0 = 64 MiB; negative disables auto-checkpointing).
	WALCheckpointBytes int64
}

// refineWorkers resolves the intra-query parallelism default. The public
// layer (not core) owns the GOMAXPROCS resolution so zero-valued direct
// core constructions stay serial and deterministic.
func (o Options) refineWorkers() int {
	if o.RefineWorkers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.RefineWorkers
}

// RepairStats summarizes the Open-time reconciliation between the sequence
// heap and the feature index (see Open and Repair).
type RepairStats = core.RepairStats

// DB is a sequence database with the paper's 4-d feature index kept in sync
// with the stored sequences. A DB is safe for concurrent readers; writers
// require external serialization.
type DB struct {
	queryPath   // options, base distance, result cache
	store       *seqdb.DB
	index       *core.FeatureIndex
	envs        *core.EnvStore
	dir         string // empty when in-memory
	repair      RepairStats
	envsRebuilt bool     // Open rebuilt the envelope sidecar; Flush persists it
	openNotes   []string // one line per Open-time repair/rebuild (OpenDiagnostics)
	// gen is the write generation: bumped after every mutation
	// (Add/AddAll/Remove/Repair) and read by queries before their first
	// index or heap access, it stamps result-cache entries so a cached
	// answer is served only while the database is byte-for-byte the one
	// that computed it.
	gen atomic.Uint64
	// wal is the group-commit write-ahead log (nil unless Options.WAL on
	// an on-disk database); walReplayed records that Open applied logged
	// mutations, forcing a reconcile + checkpoint before Open returns.
	wal         *wal.Log
	walReplayed bool
}

const (
	indexFileName = "feature.rtree"
	envsFileName  = "envelopes.paa"
	// staleFlatIndexFileName is the snapshot file of a feature-index
	// engine earlier builds offered. Nothing reads it; Open deletes it.
	staleFlatIndexFileName = "feature.flat"
)

// indexOptions assembles the core-level index options; path is empty for
// in-memory databases.
func (o Options) indexOptions(path string) core.IndexOptions {
	return core.IndexOptions{
		PageSize:   o.PageSize,
		PoolPages:  o.PoolPages,
		Split:      o.Split,
		OnDiskPath: path,
	}
}

// note records one Open-time diagnostic line (see OpenDiagnostics).
func (db *DB) note(format string, args ...any) {
	db.openNotes = append(db.openNotes, fmt.Sprintf(format, args...))
}

// OpenDiagnostics returns one human-readable line per repair or rebuild the
// most recent Open (or Repair) performed — index rebuilt from the heap or
// reconciled with it, envelope sidecar re-derived.
// Empty when the database opened clean. twsimd logs each line at startup so
// silent self-healing leaves a trace.
func (db *DB) OpenDiagnostics() []string {
	return append([]string(nil), db.openNotes...)
}

// OpenMem creates an ephemeral in-memory database (page layout and buffer
// accounting identical to the on-disk form).
func OpenMem(opts Options) (*DB, error) {
	store, err := seqdb.NewMem(seqdb.Options{PageSize: opts.PageSize, PoolPages: opts.PoolPages, CacheBytes: opts.SeqCacheBytes})
	if err != nil {
		return nil, err
	}
	index, err := core.NewFeatureIndex(opts.indexOptions(""))
	if err != nil {
		store.Close()
		return nil, err
	}
	return &DB{queryPath: newQueryPath(opts), store: store, index: index, envs: core.NewEnvStore()}, nil
}

// Create creates a new on-disk database in directory dir.
func Create(dir string, opts Options) (*DB, error) {
	store, err := seqdb.Create(dir, seqdb.Options{PageSize: opts.PageSize, PoolPages: opts.PoolPages, CacheBytes: opts.SeqCacheBytes})
	if err != nil {
		return nil, err
	}
	index, err := core.NewFeatureIndex(opts.indexOptions(filepath.Join(dir, indexFileName)))
	if err != nil {
		store.Close()
		return nil, err
	}
	db := &DB{queryPath: newQueryPath(opts), store: store, index: index, envs: core.NewEnvStore(), dir: dir}
	if opts.WAL {
		wlog, err := wal.Create(filepath.Join(dir, walFileName), 1, opts.walOptions())
		if err != nil {
			store.Close()
			index.Close()
			return nil, err
		}
		db.wal = wlog
	}
	return db, nil
}

// Open opens an existing on-disk database.
//
// Open is self-healing: when the feature index and the sequence heap
// disagree — an interrupted write left an orphaned heap record or a
// dangling index entry — Open reconciles them by re-deriving feature
// vectors from the live heap records and patching the index, and when the
// index file is missing or unreadable it is rebuilt from scratch by
// scanning the heap. The heap is the source of truth; the index is always
// derivable from it. LastRepair reports what, if anything, was fixed.
func Open(dir string, opts Options) (*DB, error) {
	store, err := seqdb.Open(dir, seqdb.Options{PageSize: opts.PageSize, PoolPages: opts.PoolPages, CacheBytes: opts.SeqCacheBytes})
	if err != nil {
		return nil, fmt.Errorf("twsim: %s does not contain a database: %w", dir, err)
	}
	db := &DB{queryPath: newQueryPath(opts), store: store, dir: dir}
	if opts.WAL {
		// Replay the WAL tail over the heap before the index opens: the
		// index layers below reconcile against whatever the heap holds, so
		// recovered appends and tombstones are re-indexed (or dropped) by
		// the exact same LastRepair machinery an unlogged crash uses.
		if err := db.openWAL(); err != nil {
			store.Close()
			return nil, fmt.Errorf("twsim: write-ahead log: %w", err)
		}
	}
	index, err := core.OpenFeatureIndex(filepath.Join(dir, indexFileName), opts.indexOptions(""))
	if err != nil {
		// Unopenable (missing, truncated, wrong dimension): rebuild it from
		// the heap.
		db.note("index file=%s rebuilt-on-open: %v", indexFileName, err)
		if err := db.rebuildIndex(); err != nil {
			store.Close()
			return nil, fmt.Errorf("twsim: rebuilding index: %w", err)
		}
		if err := db.loadEnvs(); err != nil {
			db.Close()
			return nil, fmt.Errorf("twsim: rebuilding envelope store: %w", err)
		}
		if db.envsRebuilt {
			db.note("envelope-sidecar rebuilt-on-open: entries=%d", db.envs.Len())
		}
		if err := db.Flush(); err != nil {
			db.Close()
			return nil, err
		}
		if err := removeStaleFlatIndex(dir); err != nil {
			db.Close()
			return nil, err
		}
		return db, nil
	}
	db.index = index
	dirty := false
	if index.Len() != store.Len() || db.walReplayed {
		// Replayed mutations can leave the live count unchanged (an add
		// plus a remove) while contents diverge, so any replay forces the
		// reconcile rather than trusting the count check alone.
		db.note("index reconciled-on-open: indexed=%d live=%d", index.Len(), store.Len())
		if _, err := db.Repair(); err != nil {
			db.Close()
			return nil, err
		}
		dirty = true
	}
	if err := db.loadEnvs(); err != nil {
		db.Close()
		return nil, fmt.Errorf("twsim: rebuilding envelope store: %w", err)
	}
	if db.envsRebuilt {
		db.note("envelope-sidecar rebuilt-on-open: entries=%d", db.envs.Len())
	}
	if dirty || db.envsRebuilt {
		if err := db.Flush(); err != nil {
			db.Close()
			return nil, err
		}
	}
	if err := removeStaleFlatIndex(dir); err != nil {
		db.Close()
		return nil, err
	}
	return db, nil
}

// loadEnvs populates db.envs from the sidecar file, falling back to a
// heap-scan rebuild whenever the sidecar is missing, damaged, or its entry
// count disagrees with the heap — which is both the recovery path for a
// crash between heap write and Flush and the migration path for databases
// created before envelopes existed (they grow the sidecar on first open).
// The count check suffices for correctness: IDs are never reused, so a
// stored envelope can only be present-or-absent, never wrong for a live ID.
func (db *DB) loadEnvs() error {
	if db.dir == "" {
		db.envs = core.NewEnvStore()
		return nil
	}
	if es, err := core.LoadEnvStore(filepath.Join(db.dir, envsFileName)); err == nil && es.Len() == db.store.Len() {
		db.envs = es
		return nil
	}
	es, err := core.BuildEnvStore(db.store)
	if err != nil {
		return err
	}
	db.envs = es
	db.envsRebuilt = true
	return nil
}

// removeStaleFlatIndex deletes the snapshot file a directory created by
// the removed flat index engine still holds, and syncs the directory so
// the deletion is durable. Open calls it once feature.rtree is valid on
// disk: such a directory has no feature.rtree, so Open has just rebuilt
// the R-tree from the heap and flushed it, or a crash interrupted an
// earlier migration after that flush.
func removeStaleFlatIndex(dir string) error {
	if err := os.Remove(filepath.Join(dir, staleFlatIndexFileName)); err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	return fsx.SyncDir(dir)
}

// rebuildIndex replaces db.index with one bulk-loaded from the live heap
// records, recording the repair in db.repair. The previous index, if any,
// must already be closed.
func (db *DB) rebuildIndex() error {
	path := ""
	if db.dir != "" {
		path = filepath.Join(db.dir, indexFileName)
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	index, rs, err := core.RebuildIndex(db.store, db.opts.indexOptions(path))
	if err != nil {
		return err
	}
	db.index = index
	db.repair = rs
	return nil
}

// LastRepair returns the statistics of the reconciliation Open (or Repair)
// performed. The zero value means the database opened consistent.
func (db *DB) LastRepair() RepairStats { return db.repair }

// Repair reconciles the feature index with the live heap records on demand
// — the fsck-and-fix counterpart to Verify, usable on any database (not
// just at Open time). When the index structure is intact it is patched in
// place (orphans re-indexed, dangling entries removed); when it is damaged
// beyond entry-level patching the index is rebuilt from the heap, which is
// always possible because the heap is the source of truth. It returns what
// it had to change.
func (db *DB) Repair() (RepairStats, error) {
	defer db.gen.Add(1)
	rs, err := db.repairIndex()
	if err != nil {
		return rs, err
	}
	// The envelope store is as derivable from the heap as the index is;
	// whatever inconsistency prompted the repair may have touched it too, so
	// re-derive it wholesale (it is small: ~264 bytes per sequence).
	if db.envs != nil {
		es, err := core.BuildEnvStore(db.store)
		if err != nil {
			return rs, fmt.Errorf("twsim: rebuilding envelope store: %w", err)
		}
		db.envs = es
		db.envsRebuilt = true
	}
	return rs, nil
}

func (db *DB) repairIndex() (RepairStats, error) {
	if db.index.CheckInvariants() == nil {
		rs, err := core.Reconcile(db.store, db.index)
		if err == nil {
			db.repair = rs
			return rs, nil
		}
	}
	// Structure damaged (or patching failed): rebuild from scratch.
	db.index.Close()
	if err := db.rebuildIndex(); err != nil {
		return db.repair, fmt.Errorf("twsim: rebuilding index: %w", err)
	}
	return db.repair, nil
}

// Base returns the configured base distance.
func (db *DB) Base() Base { return db.base }

// Len returns the number of stored sequences.
func (db *DB) Len() int { return db.store.Len() }

// applyAdd performs the in-memory/in-heap half of Add: validate, append,
// index, envelope. The public Add/AddCommit wrappers in durability.go own
// WAL logging and the durability acknowledgment.
func (db *DB) applyAdd(values []float64) (ID, error) {
	if err := seq.CheckFinite(values); err != nil {
		return seq.InvalidID, err
	}
	// Bump the write generation after the mutation, before returning —
	// including on a rolled-back failure (the rollback is best effort, so
	// over-invalidating the result cache is the conservative side).
	defer db.gen.Add(1)
	s := seq.Sequence(values)
	id, err := db.store.Append(s)
	if err != nil {
		return seq.InvalidID, err
	}
	if err := db.index.Insert(id, s); err != nil {
		if rbErr := db.store.RollbackLast(id); rbErr != nil {
			return seq.InvalidID, fmt.Errorf("twsim: sequence %d not indexed (%w) and not rolled back: %v", id, err, rbErr)
		}
		return seq.InvalidID, fmt.Errorf("twsim: sequence %d not indexed (rolled back): %w", id, err)
	}
	if pe, err := seq.ExtractPAAEnvelope(s); err == nil {
		db.envs.Put(id, pe)
	}
	return id, nil
}

// applyAddAll performs the in-memory/in-heap half of AddAll (see the
// public wrapper in durability.go for the contract).
func (db *DB) applyAddAll(values [][]float64) (ID, error) {
	if len(values) == 0 {
		return seq.InvalidID, errors.New("twsim: AddAll of empty batch")
	}
	defer db.gen.Add(1)
	// Validate the whole batch before the first append: a non-finite
	// sequence mid-batch would otherwise trigger the rollback machinery for
	// an error that was knowable upfront.
	for i, v := range values {
		if err := seq.CheckFinite(v); err != nil {
			return seq.InvalidID, fmt.Errorf("twsim: batch sequence %d: %w", i, err)
		}
	}
	appended := make([]ID, 0, len(values))
	indexed := make([]seq.Sequence, 0, len(values)) // sequences with index entries
	// rollback undoes the partial batch in reverse append order; storage
	// errors during rollback are secondary — Open-time reconciliation
	// covers whatever best effort could not.
	rollback := func() {
		for i := len(appended) - 1; i >= 0; i-- {
			if i < len(indexed) {
				_, _ = db.index.Delete(appended[i], indexed[i])
			}
			db.envs.Remove(appended[i])
			_ = db.store.RollbackLast(appended[i])
		}
		if db.index.Len() != db.store.Len() {
			// An index delete failed too (the storage fault that aborted
			// the batch is likely still active). Fall back to rebuilding
			// the index from the heap, which is the source of truth; if
			// even that fails the divergence is caught at the next Open.
			_, _ = db.Repair()
		}
	}
	if db.store.Len() > 0 {
		for _, v := range values {
			s := seq.Sequence(v)
			id, err := db.store.Append(s)
			if err != nil {
				rollback()
				return seq.InvalidID, err
			}
			appended = append(appended, id)
			if err := db.index.Insert(id, s); err != nil {
				rollback()
				return seq.InvalidID, fmt.Errorf("twsim: batch aborted at sequence %d: %w", len(appended)-1, err)
			}
			indexed = append(indexed, s)
			if pe, err := seq.ExtractPAAEnvelope(s); err == nil {
				db.envs.Put(id, pe)
			}
		}
		return appended[0], nil
	}
	features := make([]seq.Feature, 0, len(values))
	for _, v := range values {
		s := seq.Sequence(v)
		f, err := seq.ExtractFeature(s)
		if err != nil {
			rollback()
			return seq.InvalidID, err
		}
		id, err := db.store.Append(s)
		if err != nil {
			rollback()
			return seq.InvalidID, err
		}
		appended = append(appended, id)
		features = append(features, f)
	}
	// BulkLoad is internally atomic: on failure the index is still empty
	// and only the heap appends need undoing.
	if err := db.index.BulkLoad(appended, features); err != nil {
		rollback()
		return seq.InvalidID, err
	}
	for i, id := range appended {
		if pe, err := seq.ExtractPAAEnvelope(seq.Sequence(values[i])); err == nil {
			db.envs.Put(id, pe)
		}
	}
	return appended[0], nil
}

// applyRemove performs the in-memory/in-heap half of Remove (see the
// public wrapper in durability.go).
func (db *DB) applyRemove(id ID) (bool, error) {
	defer db.gen.Add(1)
	s, err := db.store.Get(id)
	if err != nil {
		if errors.Is(err, seqdb.ErrDeleted) || errors.Is(err, seqdb.ErrNotFound) {
			return false, nil
		}
		return false, err
	}
	if _, err := db.index.Delete(id, s); err != nil {
		return false, err
	}
	db.envs.Remove(id)
	return db.store.Delete(id)
}

// Get fetches a stored sequence by ID.
func (db *DB) Get(id ID) ([]float64, error) {
	s, err := db.store.Get(id)
	if err != nil {
		return nil, err
	}
	if db.opts.SeqCacheBytes > 0 {
		// The store may have served a cached sequence shared with concurrent
		// readers; hand the caller a private copy it is free to mutate.
		return append([]float64(nil), s...), nil
	}
	return []float64(s), nil
}

// searcher builds the query engine with the given intra-query worker count
// and Sakoe–Chiba band half-width (0 = unconstrained). ctx, when non-nil,
// cancels the query at its next candidate boundary.
func (db *DB) searcher(ctx context.Context, workers, band int) *core.TWSimSearch {
	return &core.TWSimSearch{DB: db.store, Index: db.index, Base: db.base,
		NoCascade: db.opts.DisableCascade, NoEnvOrder: db.opts.DisableEnvOrdering,
		Workers: workers, Band: band, Envs: db.envs, Ctx: ctx}
}

// Generation returns the database's current write generation — the counter
// the result cache stamps entries with. It advances on every mutation, so
// two equal readings bracket a window in which no write was acknowledged.
func (db *DB) Generation() uint64 { return db.gen.Load() }

// ResultCacheStats snapshots the whole-query result cache counters (all
// zero when the cache is disabled).
func (db *DB) ResultCacheStats() core.ResultCacheStats { return db.rcache.Stats() }

// DefaultBand returns the band half-width queries run under when no
// per-call override is given (Options.Band).
func (db *DB) DefaultBand() int { return db.opts.Band }

// Search finds every sequence whose time warping distance to query is at
// most epsilon, using the paper's TW-Sim-Search (Algorithm 1): index range
// query with Dtw-lb, then exact DTW refinement. No false dismissal. It is
// SearchCtx under the default band (Options.Band: 0 answers the
// unconstrained Dtw, ≥ 1 the banded BandDistance) with no cancellation.
func (db *DB) Search(query []float64, epsilon float64) (*Result, error) {
	return db.SearchCtx(context.TODO(), query, epsilon, db.opts.Band)
}

// SearchCtx is the range query: every sequence within epsilon of query
// under the Sakoe–Chiba band half-width band (0 = unconstrained, ≥ 1 =
// BandDistance(S, Q, band); banded results are bit-identical to a
// brute-force banded scan). The query is abandoned at its next candidate
// boundary once ctx is done (the context's error is returned), and
// Options.QueryDeadline, if set, caps the execution time on top; a
// completed search is bit-identical to an uncancelled one. Invalid inputs
// fail with ErrInvalidQuery. The whole-query result cache, when enabled,
// answers repeats with zero search work (see Options.ResultCacheBytes).
// The Result carries a process-unique RequestID; queries whose wall time
// reaches Options.SlowQueryThreshold are logged with it.
func (db *DB) SearchCtx(ctx context.Context, query []float64, epsilon float64, band int) (*Result, error) {
	return db.run(ctx, db, querySpec{kind: rangeQuery, values: query, epsilon: epsilon, band: band})
}

// NearestK returns the k sequences with the smallest exact time warping
// distance to query, in ascending distance order (an extension enabled by
// Dtw-lb being a true lower bound of Dtw), under the default band. Use
// NearestKCtx for the query's work counters, a band override, or
// cancellation.
func (db *DB) NearestK(query []float64, k int) ([]Match, error) {
	res, err := db.NearestKCtx(context.TODO(), query, k, db.opts.Band)
	if err != nil {
		return nil, err
	}
	return res.Matches, nil
}

// NearestKCtx is the k-NN query under an explicit band half-width
// (0 = unconstrained), governed by a context exactly as SearchCtx is. The
// Result carries the matches plus the query's work counters (candidates,
// cascade prune tiers, DTW calls, wall time) and its RequestID, so k-NN
// traffic feeds the same metrics and slow-query log as range searches.
func (db *DB) NearestKCtx(ctx context.Context, query []float64, k, band int) (*Result, error) {
	return db.run(ctx, db, querySpec{kind: knnQuery, values: query, k: k, band: band})
}

// execute runs a validated query on this database at the configured
// refine parallelism (queryEngine).
func (db *DB) execute(ctx context.Context, q querySpec) (*Result, error) {
	if q.kind == knnQuery {
		ms, stats, err := db.nearestKWorkers(ctx, q.values, q.k, q.band, nil, db.opts.refineWorkers())
		if err != nil {
			return nil, err
		}
		return &Result{Matches: ms, Stats: stats}, nil
	}
	return db.searchWorkers(ctx, q.values, q.epsilon, q.band, db.opts.refineWorkers())
}

// searchWorkers runs TW-Sim-Search with an explicit intra-query refine
// worker count (≤ 1 = serial) and no validation, cache, deadline, or
// logging — the caller's query path did those. Results are bit-identical
// at every worker count.
func (db *DB) searchWorkers(ctx context.Context, query []float64, epsilon float64, band, workers int) (*Result, error) {
	return db.searcher(ctx, workers, band).Search(seq.Sequence(query), epsilon)
}

// nearestKWorkers is searchWorkers for k-NN, with an optional shared
// pruning bound: when several databases partition one logical data set
// (the shards of a ShardedDB), concurrent per-partition walks publishing
// into one bound prune each other, and the merged, re-sorted,
// truncated-to-k union of their survivors equals the unpartitioned answer.
// Under a shared bound the survivors need not be this partition's own true
// top-k. The stats satisfy Candidates = ΣPruned + DTWCalls.
func (db *DB) nearestKWorkers(ctx context.Context, query []float64, k, band int, bound *core.SharedBound, workers int) ([]Match, QueryStats, error) {
	return db.searcher(ctx, workers, band).NearestKSharedStats(seq.Sequence(query), k, bound)
}

// StorageStats snapshots the storage-layer counters: data and index buffer
// pools plus the decoded-sequence cache (zero when disabled).
func (db *DB) StorageStats() StorageStats {
	return StorageStats{Data: db.store.Stats(), Index: db.index.Stats(), Cache: db.store.CacheStats()}
}

// Distance computes the exact time warping distance between a stored
// sequence and an arbitrary query under the database's base distance.
func (db *DB) Distance(id ID, query []float64) (float64, error) {
	s, err := db.store.Get(id)
	if err != nil {
		return 0, err
	}
	return Distance(s, query, db.base), nil
}

// IndexPages returns the number of pages the feature index occupies — the
// paper observes the index stays below 4% of the database size (§5.2).
func (db *DB) IndexPages() int { return db.index.Pages() }

// DataBytes returns the logical size of the stored sequence data.
func (db *DB) DataBytes() int64 { return db.store.Bytes() }

// CheckInvariants validates the index structure (tests and repair tooling).
func (db *DB) CheckInvariants() error { return db.index.CheckInvariants() }

// Flush persists all state to disk (no-op for in-memory databases). With
// the WAL enabled a successful Flush is also a checkpoint: once the heap
// pages are fsynced, the manifest renamed and dir-synced, and the index
// and envelope sidecar saved, every logged mutation is durable by other
// means, so the log resets to an empty file with a higher base sequence
// number (pending waiters are released — their records are durable too).
func (db *DB) Flush() error {
	if err := db.store.Flush(); err != nil {
		return err
	}
	if err := db.index.Flush(); err != nil {
		return err
	}
	if db.dir != "" && db.envs != nil {
		if err := db.envs.Save(filepath.Join(db.dir, envsFileName)); err != nil {
			return fmt.Errorf("twsim: saving envelope store: %w", err)
		}
		db.envsRebuilt = false
	}
	if db.wal != nil {
		if err := db.wal.Checkpoint(); err != nil {
			return fmt.Errorf("twsim: wal checkpoint: %w", err)
		}
	}
	return nil
}

// Close flushes and releases the database. With the WAL enabled the log
// is checkpointed (emptied) on a clean close, so the next Open has
// nothing to replay.
func (db *DB) Close() error {
	var envErr error
	if db.dir != "" && db.envs != nil {
		if err := db.envs.Save(filepath.Join(db.dir, envsFileName)); err != nil {
			envErr = fmt.Errorf("twsim: saving envelope store: %w", err)
		}
	}
	err1 := db.store.Close()
	err2 := db.index.Close()
	var walErr error
	if db.wal != nil {
		// The store Close above flushed and fsynced the heap + manifest,
		// so the checkpoint's precondition holds; a checkpoint failure
		// just leaves the tail to be replayed (idempotently) at next Open.
		if envErr == nil && err1 == nil && err2 == nil {
			if err := db.wal.Checkpoint(); err != nil && !errors.Is(err, wal.ErrClosed) {
				walErr = fmt.Errorf("twsim: wal checkpoint: %w", err)
			}
		}
		if err := db.wal.Close(); err != nil && walErr == nil {
			walErr = fmt.Errorf("twsim: wal close: %w", err)
		}
	}
	if err1 != nil {
		return err1
	}
	if err2 != nil {
		return err2
	}
	if envErr != nil {
		return envErr
	}
	return walErr
}
