package twsim_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	twsim "repro"
)

// cacheBackend pairs an engine running the result cache with an uncached
// twin that receives the same writes in the same order, so both hold
// identical contents under identical IDs. mu serializes writers against
// reader pairs: the single-DB engine needs it by the library's concurrency
// rule, and the sharded engine (internally safe) uses it so a cached read
// and its twin's recompute observe the same contents.
type cacheBackend struct {
	mu   sync.RWMutex
	b    queryDB
	twin queryDB
}

// openCacheBackends opens one cacheBackend per engine shape.
func openCacheBackends(t *testing.T, cacheBytes int64) map[string]*cacheBackend {
	t.Helper()
	out := make(map[string]*cacheBackend, len(testEngines))
	for _, eng := range testEngines {
		out[eng.name] = &cacheBackend{
			b:    eng.open(t, twsim.Options{ResultCacheBytes: cacheBytes}),
			twin: eng.open(t, twsim.Options{}),
		}
	}
	return out
}

// add and remove apply one write to both the cached engine and its twin.
func (cb *cacheBackend) add(values []float64) (twsim.ID, error) {
	id, err := cb.b.Add(values)
	if err != nil {
		return id, err
	}
	if tid, err := cb.twin.Add(values); err != nil || tid != id {
		return id, fmt.Errorf("twin add: id %d (want %d), %v", tid, id, err)
	}
	return id, nil
}

func (cb *cacheBackend) remove(id twsim.ID) (bool, error) {
	ok, err := cb.b.Remove(id)
	if err != nil {
		return ok, err
	}
	if tok, err := cb.twin.Remove(id); err != nil || tok != ok {
		return ok, fmt.Errorf("twin remove %d: %v (want %v), %v", id, tok, ok, err)
	}
	return ok, nil
}

// cacheKinds are the two query kinds; both reach the result cache through
// the same shared query path, and every coherence test runs over both.
var cacheKinds = []struct {
	name string
	run  func(b queryDB, q []float64) (*twsim.Result, error)
}{
	{"range", func(b queryDB, q []float64) (*twsim.Result, error) { return b.SearchCtx(bg, q, 0.8, 0) }},
	{"knn", func(b queryDB, q []float64) (*twsim.Result, error) { return b.NearestKCtx(bg, q, 3, 0) }},
}

// TestResultCacheHit: a repeated query answers from the cache — flagged,
// bit-identical matches, zero work counters — and the knn and range kinds
// do not collide.
func TestResultCacheHit(t *testing.T) {
	for name, cb := range openCacheBackends(t, 1<<20) {
		t.Run(name, func(t *testing.T) {
			data := randomWalks(77, 40, 12, 24)
			if _, err := cb.b.AddBatch(data); err != nil {
				t.Fatal(err)
			}
			q := data[3]
			cold, err := cb.b.SearchCtx(nil, q, 0.5, 0)
			if err != nil {
				t.Fatal(err)
			}
			if cold.CacheHit {
				t.Fatal("first query reported a cache hit")
			}
			hot, err := cb.b.SearchCtx(nil, q, 0.5, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !hot.CacheHit {
				t.Fatal("repeat query missed the cache")
			}
			if !matchesEqual(cold.Matches, hot.Matches) {
				t.Fatal("cached matches differ from cold matches")
			}
			if hot.Stats.DTWCalls != 0 || hot.Stats.Candidates != 0 || hot.Stats.LowerBoundCalls != 0 {
				t.Fatalf("cache hit did index work: %+v", hot.Stats)
			}
			if hot.RequestID == cold.RequestID {
				t.Fatal("cache hit reused the cold query's request ID")
			}
			// A knn query with the same vector must not collide with the
			// cached range entry.
			knn, err := cb.b.NearestKCtx(nil, q, 3, 0)
			if err != nil {
				t.Fatal(err)
			}
			if knn.CacheHit {
				t.Fatal("knn query hit the range query's cache entry")
			}
			if len(knn.Matches) != 3 {
				t.Fatalf("knn returned %d matches", len(knn.Matches))
			}
			knnHot, err := cb.b.NearestKCtx(nil, q, 3, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !knnHot.CacheHit || !matchesEqual(knn.Matches, knnHot.Matches) {
				t.Fatal("repeat knn did not hit with identical matches")
			}
			st := cb.b.ResultCacheStats()
			if st.Hits < 2 || st.Misses < 2 {
				t.Fatalf("cache stats = %+v, want >= 2 hits and misses", st)
			}
		})
	}
}

// TestResultCacheWriteInvalidation: any write (add, remove) makes the next
// identical query recompute rather than serve the stale entry — for range
// and k-NN queries on both engines.
func TestResultCacheWriteInvalidation(t *testing.T) {
	for _, eng := range testEngines {
		t.Run(eng.name, func(t *testing.T) {
			for _, kind := range cacheKinds {
				t.Run(kind.name, func(t *testing.T) {
					b := eng.open(t, twsim.Options{ResultCacheBytes: 1 << 20})
					data := randomWalks(78, 30, 12, 24)
					if _, err := b.AddBatch(data); err != nil {
						t.Fatal(err)
					}
					q := data[0]
					before, err := kind.run(b, q)
					if err != nil {
						t.Fatal(err)
					}
					if hot, err := kind.run(b, q); err != nil || !hot.CacheHit {
						t.Fatalf("repeat query before any write: hit=%v, %v", hot != nil && hot.CacheHit, err)
					}
					// Insert an exact duplicate of the query: it must appear in the
					// next result at distance 0.
					dupID, err := b.Add(q)
					if err != nil {
						t.Fatal(err)
					}
					after, err := kind.run(b, q)
					if err != nil {
						t.Fatal(err)
					}
					if after.CacheHit {
						t.Fatal("query after a write served the stale cache entry")
					}
					found := false
					for _, m := range after.Matches {
						if m.ID == dupID && m.Dist == 0 {
							found = true
						}
					}
					if !found {
						t.Fatal("inserted duplicate missing from post-write result")
					}
					if kind.name == "range" && len(after.Matches) != len(before.Matches)+1 {
						t.Fatalf("post-write result has %d matches, want %d", len(after.Matches), len(before.Matches)+1)
					}
					// Warm the cache again, remove the duplicate, and re-query.
					if _, err := kind.run(b, q); err != nil {
						t.Fatal(err)
					}
					if ok, err := b.Remove(dupID); err != nil || !ok {
						t.Fatalf("Remove = %v, %v", ok, err)
					}
					final, err := kind.run(b, q)
					if err != nil {
						t.Fatal(err)
					}
					if final.CacheHit {
						t.Fatal("query after a remove served the stale cache entry")
					}
					if !matchesEqual(final.Matches, before.Matches) {
						t.Fatal("post-remove result differs from the original")
					}
					if st := b.ResultCacheStats(); st.Invalidations == 0 {
						t.Fatalf("no invalidations recorded: %+v", st)
					}
				})
			}
		})
	}
}

// TestResultCacheCoherenceStorm interleaves writers (adds and removes)
// with readers issuing a small set of repeated range and k-NN queries on
// both engines. Each reader pairs every cached read with a recompute on the
// uncached twin under the same read lock, so any stale hit surfaces as a
// mismatch. Run with -race this also proves the cache's internal
// synchronization.
func TestResultCacheCoherenceStorm(t *testing.T) {
	for name, cb := range openCacheBackends(t, 1<<20) {
		t.Run(name, func(t *testing.T) {
			cb := cb
			seed := randomWalks(79, 20, 10, 20)
			var ids []twsim.ID
			for _, v := range seed {
				id, err := cb.add(v)
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id)
			}
			queries := seed[:4]
			stop := make(chan struct{})
			var wg sync.WaitGroup
			errs := make(chan error, 8)

			// Two writers: one adds fresh walks, one removes earlier IDs.
			var idMu sync.Mutex
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(101))
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					walk := randomWalks(int64(1000+i), 1, 10, 20)[0]
					cb.mu.Lock()
					id, err := cb.add(walk)
					cb.mu.Unlock()
					if err != nil {
						errs <- err
						return
					}
					idMu.Lock()
					ids = append(ids, id)
					idMu.Unlock()
					if rng.Intn(4) == 0 {
						time.Sleep(time.Microsecond)
					}
				}
			}()
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(202))
				for {
					select {
					case <-stop:
						return
					default:
					}
					idMu.Lock()
					var victim twsim.ID
					ok := len(ids) > len(seed)
					if ok {
						i := len(seed) + rng.Intn(len(ids)-len(seed))
						victim = ids[i]
						ids = append(ids[:i], ids[i+1:]...)
					}
					idMu.Unlock()
					if !ok {
						time.Sleep(time.Microsecond)
						continue
					}
					cb.mu.Lock()
					_, err := cb.remove(victim)
					cb.mu.Unlock()
					if err != nil {
						errs <- err
						return
					}
				}
			}()

			// Four readers hammering the same queries so hits are frequent.
			for r := 0; r < 4; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(300 + r)))
					for {
						select {
						case <-stop:
							return
						default:
						}
						q := queries[rng.Intn(len(queries))]
						kind := cacheKinds[rng.Intn(len(cacheKinds))]
						cb.mu.RLock()
						res, err := kind.run(cb.b, q)
						if err != nil {
							cb.mu.RUnlock()
							errs <- err
							return
						}
						// Recompute on the uncached twin under the same lock:
						// any stale hit shows up as a mismatch here.
						fresh, err := kind.run(cb.twin, q)
						cb.mu.RUnlock()
						if err != nil {
							errs <- err
							return
						}
						if !matchesEqual(res.Matches, fresh.Matches) {
							errs <- fmt.Errorf("%s: cached result diverged from the uncached twin (stale hit)", kind.name)
							return
						}
					}
				}(r)
			}

			time.Sleep(300 * time.Millisecond)
			close(stop)
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			st := cb.b.ResultCacheStats()
			if st.Hits == 0 {
				t.Fatal("storm produced zero cache hits; test exercised nothing")
			}
			if st.Invalidations == 0 {
				t.Fatal("storm produced zero invalidations; writers were not interleaved")
			}
			if err := cb.b.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSearchCtxCancellation: a cancelled context aborts range, knn, and
// batch queries with context.Canceled instead of computing an answer, and
// an expired Options.QueryDeadline surfaces context.DeadlineExceeded. A
// live context leaves results bit-identical to the uncancelled API.
func TestSearchCtxCancellation(t *testing.T) {
	for name, cb := range openCacheBackends(t, 0) {
		t.Run(name, func(t *testing.T) {
			data := randomWalks(80, 60, 16, 32)
			if _, err := cb.b.AddBatch(data); err != nil {
				t.Fatal(err)
			}
			q := data[9]
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := cb.b.SearchCtx(ctx, q, 0.5, 0); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled SearchCtx error = %v, want context.Canceled", err)
			}
			if _, err := cb.b.NearestKCtx(ctx, q, 5, 0); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled NearestKCtx error = %v, want context.Canceled", err)
			}
			if _, err := cb.b.SearchBatchCtx(ctx, [][]float64{q}, 0.5, 0, 1); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled SearchBatchCtx error = %v, want context.Canceled", err)
			}
			// A live cancellable context is inert: results equal the
			// default-band form's, which never cancels.
			live, stop := context.WithCancel(context.Background())
			defer stop()
			want, err := cb.b.Search(q, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			got, err := cb.b.SearchCtx(live, q, 0.5, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !matchesEqual(want.Matches, got.Matches) {
				t.Fatal("SearchCtx with a live context differs from Search")
			}
		})
	}
}

// TestQueryDeadline: Options.QueryDeadline bounds query execution — a
// deadline far shorter than the workload aborts with
// context.DeadlineExceeded rather than running to completion.
func TestQueryDeadline(t *testing.T) {
	db, err := twsim.OpenMem(twsim.Options{QueryDeadline: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	data := randomWalks(81, 200, 32, 64)
	if _, err := db.AddBatch(data); err != nil {
		t.Fatal(err)
	}
	// Huge epsilon forces every candidate through refinement, so the
	// 1 ns deadline is checked long before the query can finish.
	_, err = db.SearchCtx(nil, data[0], 1e9, 0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline query error = %v, want context.DeadlineExceeded", err)
	}
}
