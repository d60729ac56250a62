package pagefile

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestStripeCountScalesWithCapacity: the stripe count is the largest power
// of two that keeps every stripe at minStripeCapacity frames or more, capped
// at maxStripes — and tiny pools degenerate to a single stripe so the
// capacity-N exhaustion guarantee ("N pins always fit") is preserved.
func TestStripeCountScalesWithCapacity(t *testing.T) {
	cases := []struct{ capacity, want int }{
		{4, 1}, {8, 1}, {15, 1}, {16, 2}, {31, 2}, {32, 4},
		{64, 8}, {127, 8}, {128, 16}, {1024, 16},
	}
	for _, c := range cases {
		p := newMemPool(t, 128, c.capacity)
		if got := p.NumStripes(); got != c.want {
			t.Errorf("capacity %d: %d stripes, want %d", c.capacity, got, c.want)
		}
		total := 0
		for i := range p.stripes {
			if p.stripes[i].capacity < minStripeCapacity && p.NumStripes() > 1 {
				t.Errorf("capacity %d: stripe %d holds only %d frames", c.capacity, i, p.stripes[i].capacity)
			}
			total += p.stripes[i].capacity
		}
		if total != c.capacity {
			t.Errorf("capacity %d: stripes sum to %d frames", c.capacity, total)
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPoolStripedStorm hammers a multi-stripe pool from many goroutines —
// reads, writes, flushes, and stats snapshots racing evictions of a working
// set three times the pool capacity — and then verifies no page lost its
// stamp. Run under -race this is the striping correctness gate. The pool
// does not latch page contents, so the storm follows the discipline the
// engines' writer locks provide: a page's writer excludes its readers, and
// FlushAll excludes writers.
func TestPoolStripedStorm(t *testing.T) {
	const (
		pageSize   = 128
		capacity   = 32 // 4 stripes of 8
		pages      = 96 // 3x capacity: constant eviction pressure
		goroutines = 8
		iters      = 400
	)
	pool := newMemPool(t, pageSize, capacity)
	if pool.NumStripes() < 2 {
		t.Fatalf("storm needs a striped pool, got %d stripes", pool.NumStripes())
	}
	ids := make([]PageID, pages)
	for i := range ids {
		pg, err := pool.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint64(pg.Payload(), uint64(pg.ID()))
		pg.MarkDirty()
		ids[i] = pg.ID()
		pg.Unpin()
	}

	var (
		wg      sync.WaitGroup
		flushMu sync.RWMutex                  // FlushAll excludes payload writers
		pageMu  = make([]sync.RWMutex, pages) // a page's writer excludes its readers
	)
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < iters; i++ {
				idx := rng.Intn(pages)
				id := ids[idx]
				pg, err := pool.Fetch(id)
				if err != nil {
					errs <- err
					return
				}
				pageMu[idx].RLock()
				got := PageID(binary.LittleEndian.Uint64(pg.Payload()))
				pageMu[idx].RUnlock()
				if got != id {
					pg.Unpin()
					errs <- fmt.Errorf("page %d stamped %d", id, got)
					return
				}
				if rng.Intn(3) == 0 {
					// Rewrite the stamp so dirty write-back races evictions.
					flushMu.RLock()
					pageMu[idx].Lock()
					binary.LittleEndian.PutUint64(pg.Payload(), uint64(id))
					pg.MarkDirty()
					pageMu[idx].Unlock()
					flushMu.RUnlock()
				}
				pg.Unpin()
				switch rng.Intn(16) {
				case 0:
					_ = pool.Stats()
				case 1:
					flushMu.Lock()
					err := pool.FlushAll()
					flushMu.Unlock()
					if err != nil {
						errs <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	for _, id := range ids {
		pg, err := pool.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		if got := PageID(binary.LittleEndian.Uint64(pg.Payload())); got != id {
			t.Fatalf("page %d stamped %d after storm", id, got)
		}
		pg.Unpin()
	}
	st := pool.Stats()
	if st.Reads == 0 || st.Misses == 0 {
		t.Fatalf("storm recorded no activity: %+v", st)
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStripedEvictionRacesPinnedPages: while one goroutine keeps frames
// pinned, others churn the same stripe set past capacity. Evictions must
// skip pinned frames; the pinned pages stay valid throughout.
func TestStripedEvictionRacesPinnedPages(t *testing.T) {
	const capacity = 32
	pool := newMemPool(t, 128, capacity)
	var ids []PageID
	for i := 0; i < capacity*3; i++ {
		pg, err := pool.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint64(pg.Payload(), uint64(pg.ID()))
		pg.MarkDirty()
		ids = append(ids, pg.ID())
		pg.Unpin()
	}
	// Pin one page per stripe and hold across the churn.
	pinned := make([]*Page, 0, pool.NumStripes())
	seen := make(map[uint32]bool)
	for _, id := range ids {
		s := uint32(id) & pool.mask
		if seen[s] {
			continue
		}
		seen[s] = true
		pg, err := pool.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		pinned = append(pinned, pg)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for i := 0; i < 300; i++ {
				pg, err := pool.Fetch(ids[rng.Intn(len(ids))])
				if err != nil {
					t.Error(err)
					return
				}
				pg.Unpin()
			}
		}(g)
	}
	wg.Wait()

	for _, pg := range pinned {
		if got := PageID(binary.LittleEndian.Uint64(pg.Payload())); got != pg.ID() {
			t.Fatalf("pinned page %d corrupted to %d while evictions churned", pg.ID(), got)
		}
		pg.Unpin()
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStatsTakesNoStripeLocks proves the Stats snapshot is wait-free with
// respect to the stripes: with every stripe mutex held (as a stalled
// eviction or backend read would), Stats still returns. If Stats touched
// any stripe lock this test would deadlock.
func TestStatsTakesNoStripeLocks(t *testing.T) {
	pool := newMemPool(t, 128, 32)
	for i := range pool.stripes {
		pool.stripes[i].mu.Lock()
	}
	st := pool.Stats()
	for i := range pool.stripes {
		pool.stripes[i].mu.Unlock()
	}
	if st.Reads != 0 {
		t.Fatalf("fresh pool reports %d reads", st.Reads)
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkStatsUnderFetchLoad measures a Stats snapshot while fetchers
// churn every stripe. Because the counters are plain atomics the snapshot
// cost must stay flat (tens of ns) no matter how contended the stripes are;
// a lock-protected implementation would show milliseconds here.
func BenchmarkStatsUnderFetchLoad(b *testing.B) {
	pool, err := NewPool(NewMemBackend(128), 128, 64)
	if err != nil {
		b.Fatal(err)
	}
	defer pool.Close()
	var ids []PageID
	for i := 0; i < 256; i++ {
		pg, err := pool.Alloc()
		if err != nil {
			b.Fatal(err)
		}
		ids = append(ids, pg.ID())
		pg.Unpin()
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				pg, err := pool.Fetch(ids[rng.Intn(len(ids))])
				if err != nil {
					b.Error(err)
					return
				}
				pg.Unpin()
			}
		}(g)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pool.Stats()
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
}

// TestPoolFetchBeyondStripeBudget: concurrent readers may pin more pages of
// one stripe than the stripe has frames. The fetch past the budget must
// succeed (it gets a frame outside the budget), and once the pins are
// released the stripe shrinks back to its budget, writing a dirty
// over-budget page back rather than losing it.
func TestPoolFetchBeyondStripeBudget(t *testing.T) {
	pool := newMemPool(t, 128, 64) // the default pool: 8 stripes of 8 frames
	n := pool.NumStripes()
	budget := pool.stripes[0].capacity
	for i := 0; i < 2*n*(budget+1); i++ {
		pg, err := pool.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint64(pg.Payload(), uint64(pg.ID()))
		pg.MarkDirty()
		pg.Unpin()
	}
	// budget+1 pages that all hash to stripe 0.
	var pinned []*Page
	for i := 0; i <= budget; i++ {
		id := PageID(i * n)
		pg, err := pool.Fetch(id)
		if err != nil {
			t.Fatalf("fetch %d of %d pages pinned on one stripe: %v", i+1, budget+1, err)
		}
		if got := binary.LittleEndian.Uint64(pg.Payload()); got != uint64(id) {
			t.Fatalf("page %d reads stamp %d", id, got)
		}
		pinned = append(pinned, pg)
	}
	over := pinned[budget]
	binary.LittleEndian.PutUint64(over.Payload(), 1<<40)
	over.MarkDirty()
	for _, pg := range pinned {
		pg.Unpin()
	}
	st := &pool.stripes[0]
	st.mu.Lock()
	held := len(st.frames)
	st.mu.Unlock()
	if held > budget {
		t.Fatalf("stripe holds %d frames after every pin was released, budget %d", held, budget)
	}
	// Churn the stripe with budget+1 other pages so every frame cached there
	// is evicted, then check the over-budget page's write survived.
	for i := 0; i <= budget; i++ {
		pg, err := pool.Fetch(PageID((budget + 1 + i) * n))
		if err != nil {
			t.Fatal(err)
		}
		pg.Unpin()
	}
	pg, err := pool.Fetch(over.ID())
	if err != nil {
		t.Fatal(err)
	}
	defer pg.Unpin()
	if got := binary.LittleEndian.Uint64(pg.Payload()); got != 1<<40 {
		t.Fatalf("write to the over-budget page lost: stamp %d", got)
	}
}
