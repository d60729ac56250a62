package twsim_test

import (
	"errors"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	twsim "repro"
)

// flatDir turns an on-disk database directory into the shape a build with
// the removed flat index engine left behind: the heap and envelope sidecar,
// a feature.flat snapshot, and no feature.rtree.
func flatDir(t *testing.T, dir string) {
	t.Helper()
	if err := os.Remove(filepath.Join(dir, "feature.rtree")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "feature.flat"), []byte("stale flat-engine snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestOpenMigratesFlatIndexDir: Open (and OpenSharded, with one shard in
// the flat shape) rebuilds the R-tree from the heap, says so in
// OpenDiagnostics, deletes the stale feature.flat, passes Verify, and
// answers range and k-NN queries bit-identically to a fresh database.
func TestOpenMigratesFlatIndexDir(t *testing.T) {
	data := randomWalks(1515, 80, 12, 40)
	rng := rand.New(rand.NewSource(16))
	qs := make([][]float64, 4)
	for i := range qs {
		q := append([]float64(nil), data[rng.Intn(len(data))]...)
		for j := range q {
			q[j] += (rng.Float64() - 0.5) * 0.1
		}
		qs[i] = q
	}
	const shards = 2
	opts := twsim.Options{Band: 8}
	shapes := []struct {
		name      string
		create    func(dir string) (queryDB, error)
		open      func(dir string) (queryDB, error)
		fresh     func() (queryDB, error)
		flatShard string // directory made flat, relative to the database dir
	}{
		{"db",
			func(dir string) (queryDB, error) { return twsim.Create(dir, opts) },
			func(dir string) (queryDB, error) { return twsim.Open(dir, opts) },
			func() (queryDB, error) { return twsim.OpenMem(opts) },
			"."},
		{"sharded",
			func(dir string) (queryDB, error) {
				return twsim.CreateSharded(dir, twsim.ShardedOptions{Options: opts, Shards: shards})
			},
			func(dir string) (queryDB, error) {
				return twsim.OpenSharded(dir, twsim.ShardedOptions{Options: opts, Shards: shards})
			},
			func() (queryDB, error) {
				return twsim.OpenMemSharded(twsim.ShardedOptions{Options: opts, Shards: shards})
			},
			"shard-001"},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			dir := t.TempDir()
			db, err := sh.create(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := db.AddBatch(data); err != nil {
				t.Fatal(err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			flatDir(t, filepath.Join(dir, sh.flatShard))

			db, err = sh.open(dir)
			if err != nil {
				t.Fatalf("open flat-shaped directory: %v", err)
			}
			defer db.Close()
			rebuilt := false
			for _, n := range db.OpenDiagnostics() {
				rebuilt = rebuilt || strings.Contains(n, "rebuilt-on-open")
			}
			if !rebuilt {
				t.Fatalf("no rebuild diagnostic: %v", db.OpenDiagnostics())
			}
			if _, err := os.Stat(filepath.Join(dir, sh.flatShard, "feature.flat")); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("feature.flat survived the migration: %v", err)
			}
			if err := db.Verify(); err != nil {
				t.Fatalf("Verify after migration: %v", err)
			}

			fresh, err := sh.fresh()
			if err != nil {
				t.Fatal(err)
			}
			defer fresh.Close()
			if _, err := fresh.AddBatch(data); err != nil {
				t.Fatal(err)
			}
			for qi, q := range qs {
				got, err := db.SearchCtx(bg, q, 0.5, 8)
				if err != nil {
					t.Fatal(err)
				}
				want, err := fresh.SearchCtx(bg, q, 0.5, 8)
				if err != nil {
					t.Fatal(err)
				}
				if len(want.Matches) == 0 || !matchesEqual(got.Matches, want.Matches) {
					t.Fatalf("query %d: Search %v, fresh database %v", qi, got.Matches, want.Matches)
				}
				gotK, err := db.NearestKCtx(bg, q, 5, 8)
				if err != nil {
					t.Fatal(err)
				}
				wantK, err := fresh.NearestKCtx(bg, q, 5, 8)
				if err != nil {
					t.Fatal(err)
				}
				if !matchesEqual(gotK.Matches, wantK.Matches) {
					t.Fatalf("query %d: NearestK %v, fresh database %v", qi, gotK.Matches, wantK.Matches)
				}
			}
		})
	}
}
