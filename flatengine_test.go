package twsim_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	twsim "repro"
)

// openPair builds a guttman-engine and a flat-engine backend over the same
// options, so every query can be checked for bit-identity between engines.
// The flat engine gets a small merge threshold so background merges fire
// during the tests rather than only at Close.
func openPair(t *testing.T, base twsim.Base, workers, band int, sharded bool) (guttman, flat queryDB) {
	t.Helper()
	mk := func(engine string) queryDB {
		opts := twsim.Options{
			Base:               base,
			RefineWorkers:      workers,
			Band:               band,
			IndexEngine:        engine,
			FlatMergeThreshold: 32,
		}
		var b queryDB
		var err error
		if sharded {
			b, err = twsim.OpenMemSharded(twsim.ShardedOptions{Options: opts, Shards: 3})
		} else {
			b, err = twsim.OpenMem(opts)
		}
		if err != nil {
			t.Fatalf("open %s backend: %v", engine, err)
		}
		return b
	}
	return mk(twsim.EngineGuttman), mk(twsim.EngineFlat)
}

func matchesEqual(a, b []twsim.Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Dist != b[i].Dist {
			return false
		}
	}
	return true
}

// checkIdentical runs Search, NearestK, and SearchBatchCtx on both backends
// and demands bit-identical matches (same IDs, same float64 distances, same
// order). The engines walk different structures but answer from the same
// closed query rect and the same refinement cascade, so the match sets —
// unique by (Dist, ID) with overwhelming probability on random walks — must
// agree exactly.
func checkIdentical(t *testing.T, guttman, flat queryDB, rng *rand.Rand, data [][]float64) {
	t.Helper()
	for trial := 0; trial < 6; trial++ {
		q := append([]float64(nil), data[rng.Intn(len(data))]...)
		for i := range q {
			q[i] += (rng.Float64() - 0.5) * 0.1
		}
		eps := 0.1 + rng.Float64()*0.7

		gr, err := guttman.Search(q, eps)
		if err != nil {
			t.Fatal(err)
		}
		fr, err := flat.Search(q, eps)
		if err != nil {
			t.Fatal(err)
		}
		if !matchesEqual(gr.Matches, fr.Matches) {
			t.Fatalf("trial %d eps=%g: Search diverged: guttman %d matches, flat %d",
				trial, eps, len(gr.Matches), len(fr.Matches))
		}
		// Both engines must satisfy the conservation law independently
		// (per-tier attribution may differ: the flat engine's walk prunes
		// by envelope before the cascade sees the candidate).
		for _, r := range []*twsim.Result{gr, fr} {
			pruned := r.Stats.LBKimPruned + r.Stats.LBPAAPruned + r.Stats.LBKeoghPruned +
				r.Stats.LBYiPruned + r.Stats.LBImprovedPruned + r.Stats.CorridorPruned
			if r.Stats.Candidates != pruned+r.Stats.DTWCalls {
				t.Fatalf("trial %d: conservation law broken: candidates=%d pruned=%d dtw=%d",
					trial, r.Stats.Candidates, pruned, r.Stats.DTWCalls)
			}
		}

		k := 1 + rng.Intn(8)
		gm, err := guttman.NearestK(q, k)
		if err != nil {
			t.Fatal(err)
		}
		fm, err := flat.NearestK(q, k)
		if err != nil {
			t.Fatal(err)
		}
		if !matchesEqual(gm, fm) {
			t.Fatalf("trial %d k=%d: NearestK diverged", trial, k)
		}
	}

	batch := make([][]float64, 5)
	for i := range batch {
		batch[i] = data[rng.Intn(len(data))]
	}
	eps := 0.4
	grs, err := guttman.SearchBatchCtx(bg, batch, eps, guttman.DefaultBand(), 2)
	if err != nil {
		t.Fatal(err)
	}
	frs, err := flat.SearchBatchCtx(bg, batch, eps, flat.DefaultBand(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range grs {
		if !matchesEqual(grs[i].Matches, frs[i].Matches) {
			t.Fatalf("SearchBatchCtx query %d diverged", i)
		}
	}
}

// TestFlatEngineOracle: the flat engine must be bit-identical to the
// Guttman R-tree for Search, NearestK, and SearchBatchCtx — across all three
// bases, both backends (DB and ShardedDB), serial and parallel refinement,
// and unbanded plus banded queries — through a lifecycle of bulk load,
// interleaved inserts and removes (crossing the merge threshold so queries
// run against snapshot+delta mixes and freshly swapped snapshots).
func TestFlatEngineOracle(t *testing.T) {
	bases := map[string]twsim.Base{"linf": twsim.BaseLInf, "l1": twsim.BaseL1, "l2sq": twsim.BaseL2Sq}
	data := randomWalks(4243, 130, 12, 40)
	extra := randomWalks(4244, 60, 12, 40)
	for name, base := range bases {
		for _, sharded := range []bool{false, true} {
			for _, workers := range []int{1, 4} {
				for _, band := range []int{0, 8} {
					label := fmt.Sprintf("%s/%s/workers%d/band%d",
						name, map[bool]string{false: "db", true: "sharded"}[sharded], workers, band)
					t.Run(label, func(t *testing.T) {
						guttman, flat := openPair(t, base, workers, band, sharded)
						defer guttman.Close()
						defer flat.Close()

						// Phase 1: bulk load (flat: STR-packed snapshot).
						for _, b := range []queryDB{guttman, flat} {
							if _, err := b.AddBatch(data); err != nil {
								t.Fatal(err)
							}
						}
						rng := rand.New(rand.NewSource(99))
						checkIdentical(t, guttman, flat, rng, data)

						// Phase 2: interleaved inserts and removes, enough
						// churn to trip the 32-entry merge threshold.
						live := append([][]float64(nil), data...)
						gids, err := guttman.AddBatch(extra)
						if err != nil {
							t.Fatal(err)
						}
						fids, err := flat.AddBatch(extra)
						if err != nil {
							t.Fatal(err)
						}
						live = append(live, extra...)
						for i := 0; i < 25; i++ {
							j := rng.Intn(len(extra))
							if _, err := guttman.Remove(gids[j]); err != nil {
								t.Fatal(err)
							}
							if _, err := flat.Remove(fids[j]); err != nil {
								t.Fatal(err)
							}
						}
						checkIdentical(t, guttman, flat, rng, live)

						if got, want := flat.Len(), guttman.Len(); got != want {
							t.Fatalf("Len diverged: flat %d, guttman %d", got, want)
						}
						if err := flat.Verify(); err != nil {
							t.Fatalf("flat Verify: %v", err)
						}
					})
				}
			}
		}
	}
}

// TestFlatEngineMergesFire asserts the oracle churn actually exercises the
// background merge path (the threshold is small on purpose).
func TestFlatEngineMergesFire(t *testing.T) {
	db, err := twsim.OpenMem(twsim.Options{IndexEngine: twsim.EngineFlat, FlatMergeThreshold: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	data := randomWalks(7, 80, 10, 30)
	for _, s := range data {
		if _, err := db.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	st := db.IndexEngineStats()
	if st.Engine != twsim.EngineFlat {
		t.Fatalf("engine = %q, want flat", st.Engine)
	}
	// Merges run on a background goroutine; give a slow machine a moment.
	deadline := time.Now().Add(5 * time.Second)
	for st.Merges == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		st = db.IndexEngineStats()
	}
	if st.Merges == 0 {
		t.Fatal("no background merge fired despite threshold 16 and 80 inserts")
	}
	if st.Generation == 0 {
		t.Fatal("snapshot generation still 0 after merges")
	}
}

// TestFlatEnginePersistence: an on-disk flat database round-trips through
// Close/Open (the engine auto-detected from the snapshot file), survives
// snapshot corruption by rebuilding on open (with a diagnostic note), and
// keeps answering queries identically to a Guttman twin after both.
func TestFlatEnginePersistence(t *testing.T) {
	dir := t.TempDir()
	flatDir := filepath.Join(dir, "flat")
	data := randomWalks(5150, 100, 12, 40)

	db, err := twsim.Create(flatDir, twsim.Options{IndexEngine: twsim.EngineFlat})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddAll(data); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(flatDir, "feature.flat")); err != nil {
		t.Fatalf("flat snapshot file not written: %v", err)
	}

	guttman, err := twsim.OpenMem(twsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer guttman.Close()
	if _, err := guttman.AddAll(data); err != nil {
		t.Fatal(err)
	}

	// Reopen without naming the engine: feature.flat must be auto-detected.
	db, err = twsim.Open(flatDir, twsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := db.IndexEngineStats().Engine; got != twsim.EngineFlat {
		t.Fatalf("auto-detected engine = %q, want flat", got)
	}
	rng := rand.New(rand.NewSource(11))
	checkIdentical(t, guttman, db, rng, data)
	if err := db.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt the snapshot payload; the CRC must catch it and Open must
	// rebuild from the heap, noting the repair. The mmap open path defers
	// body checks past Open (lazy CRC, caught by Verify instead), so pin
	// this half to the eager fallback reader.
	t.Setenv("TWSIM_NO_MMAP", "1")
	snapPath := filepath.Join(flatDir, "feature.flat")
	raw, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(snapPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	db, err = twsim.Open(flatDir, twsim.Options{})
	if err != nil {
		t.Fatalf("open after corruption: %v", err)
	}
	defer db.Close()
	if !db.LastRepair().Rebuilt {
		t.Fatal("corrupted snapshot did not trigger rebuild-on-open")
	}
	if notes := db.OpenDiagnostics(); len(notes) == 0 {
		t.Fatal("rebuild-on-open left no open diagnostic")
	}
	checkIdentical(t, guttman, db, rng, data)
	if err := db.Verify(); err != nil {
		t.Fatalf("Verify after rebuild: %v", err)
	}
}

// TestFlatEngineExplicitMismatchRebuilds: naming the flat engine over a
// database created with the Guttman engine must not fail — the flat index
// is rebuilt from the heap (the source of truth) and the stale R-tree file
// removed, so auto-detection is unambiguous afterwards.
func TestFlatEngineSwitchFromGuttman(t *testing.T) {
	dir := t.TempDir()
	data := randomWalks(61, 50, 10, 30)
	db, err := twsim.Create(dir, twsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddAll(data); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = twsim.Open(dir, twsim.Options{IndexEngine: twsim.EngineFlat})
	if err != nil {
		t.Fatalf("open guttman db with flat engine: %v", err)
	}
	defer db.Close()
	if got := db.IndexEngineStats().Engine; got != twsim.EngineFlat {
		t.Fatalf("engine = %q, want flat", got)
	}
	res, err := db.Search(data[0], 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) == 0 || res.Matches[0].ID != 0 {
		t.Fatalf("self-query missed after engine switch: %v", res.Matches)
	}
	if err := db.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestFlatEngineStorm races concurrent searches, k-NN walks, writers, and
// removers over a flat ShardedDB whose tiny merge threshold keeps
// background snapshot swaps happening throughout. Run with -race this is
// the library-level proof that readers never lock and never see a torn
// tree.
func TestFlatEngineStorm(t *testing.T) {
	db, err := twsim.OpenMemSharded(twsim.ShardedOptions{
		Options: twsim.Options{IndexEngine: twsim.EngineFlat, FlatMergeThreshold: 16},
		Shards:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	data := randomWalks(8080, 120, 10, 30)
	ids, err := db.AddBatch(data)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	fail := make(chan error, 8)

	// Two query workers: range search + k-NN, fixed iteration counts so the
	// storm terminates on its own.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 120; i++ {
				q := data[rng.Intn(len(data))]
				if _, err := db.Search(q, 0.3); err != nil {
					fail <- err
					return
				}
				if _, err := db.NearestK(q, 3); err != nil {
					fail <- err
					return
				}
			}
		}(int64(w))
	}
	// One writer, one remover (of the writer's own IDs via a channel).
	written := make(chan twsim.ID, 256)
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < 400; i++ {
			id, err := db.Add(data[rng.Intn(len(data))])
			if err != nil {
				fail <- err
				return
			}
			if i%2 == 0 {
				select {
				case written <- id:
				default:
				}
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 150; i++ {
			var id twsim.ID
			select {
			case id = <-written:
			default:
				id = ids[rng.Intn(len(ids))]
			}
			if _, err := db.Remove(id); err != nil {
				fail <- err
				return
			}
		}
	}()

	wg.Wait()
	select {
	case err := <-fail:
		t.Fatal(err)
	default:
	}
	if err := db.Verify(); err != nil {
		t.Fatalf("Verify after storm: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}
