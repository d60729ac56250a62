package twsim_test

import (
	"math/rand"
	"testing"

	twsim "repro"
)

// TestRefineWorkersPublicOracle: every (engine, worker budget, cache)
// combination returns bit-identical Search and NearestK results to the
// serial single-database baseline, for every base distance. This is the
// end-to-end guarantee behind Options.RefineWorkers: parallel refinement,
// the striped buffer pool, and the decoded-sequence cache are pure
// performance features with zero result drift.
func TestRefineWorkersPublicOracle(t *testing.T) {
	bases := map[string]twsim.Base{"linf": twsim.BaseLInf, "l1": twsim.BaseL1, "l2sq": twsim.BaseL2Sq}
	for name, base := range bases {
		t.Run(name, func(t *testing.T) {
			data := randomWalks(307, 90, 6, 35)

			baseline, err := twsim.OpenMem(twsim.Options{Base: base, RefineWorkers: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer baseline.Close()
			if _, err := baseline.AddBatch(data); err != nil {
				t.Fatal(err)
			}

			type variant struct {
				name    string
				backend queryDB
			}
			var variants []variant
			addSingle := func(vname string, opts twsim.Options) {
				opts.Base = base
				db, err := twsim.OpenMem(opts)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { db.Close() })
				if _, err := db.AddBatch(data); err != nil {
					t.Fatal(err)
				}
				variants = append(variants, variant{vname, db})
			}
			addSharded := func(vname string, opts twsim.ShardedOptions) {
				opts.Base = base
				db, err := twsim.OpenMemSharded(opts)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { db.Close() })
				if _, err := db.AddBatch(data); err != nil {
					t.Fatal(err)
				}
				variants = append(variants, variant{vname, db})
			}
			addSingle("workers=4", twsim.Options{RefineWorkers: 4})
			addSingle("workers=4+cache", twsim.Options{RefineWorkers: 4, SeqCacheBytes: 1 << 20})
			addSingle("workers=4+nocascade", twsim.Options{RefineWorkers: 4, DisableCascade: true})
			addSharded("sharded3+workers=4", twsim.ShardedOptions{Shards: 3, Options: twsim.Options{RefineWorkers: 4}})
			addSharded("sharded3+serial+cache", twsim.ShardedOptions{Shards: 3, Options: twsim.Options{RefineWorkers: 1, SeqCacheBytes: 1 << 20}})

			rng := rand.New(rand.NewSource(71))
			for trial := 0; trial < 8; trial++ {
				q := data[rng.Intn(len(data))]
				eps := rng.Float64() * 2.5
				k := 1 + rng.Intn(8)
				want, err := baseline.Search(q, eps)
				if err != nil {
					t.Fatal(err)
				}
				wantK, err := baseline.NearestK(q, k)
				if err != nil {
					t.Fatal(err)
				}
				// Repeat each variant's queries twice so the second pass runs
				// against a warm sequence cache where one is configured.
				for _, v := range variants {
					for pass := 0; pass < 2; pass++ {
						got, err := v.backend.Search(q, eps)
						if err != nil {
							t.Fatalf("%s: %v", v.name, err)
						}
						if len(got.Matches) != len(want.Matches) {
							t.Fatalf("trial %d eps %g %s pass %d: %d matches, baseline %d",
								trial, eps, v.name, pass, len(got.Matches), len(want.Matches))
						}
						for i := range want.Matches {
							if got.Matches[i] != want.Matches[i] {
								t.Fatalf("trial %d eps %g %s pass %d match %d: %+v, baseline %+v",
									trial, eps, v.name, pass, i, got.Matches[i], want.Matches[i])
							}
						}
						gotK, err := v.backend.NearestK(q, k)
						if err != nil {
							t.Fatalf("%s: %v", v.name, err)
						}
						if len(gotK) != len(wantK) {
							t.Fatalf("trial %d k=%d %s pass %d: %d results, baseline %d",
								trial, k, v.name, pass, len(gotK), len(wantK))
						}
						for i := range wantK {
							if gotK[i] != wantK[i] {
								t.Fatalf("trial %d k=%d %s pass %d rank %d: %+v, baseline %+v",
									trial, k, v.name, pass, i, gotK[i], wantK[i])
							}
						}
					}
				}
			}
		})
	}
}

// TestStorageStatsSurface: the public StorageStats snapshot reports pool
// activity on both engines, and cache counters once the cache is enabled.
func TestStorageStatsSurface(t *testing.T) {
	data := randomWalks(311, 40, 8, 20)
	db, err := twsim.OpenMem(twsim.Options{SeqCacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.AddBatch(data); err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		if _, err := db.Search(data[0], 0.4); err != nil {
			t.Fatal(err)
		}
	}
	st := db.StorageStats()
	if st.Data.Reads == 0 || st.Index.Reads == 0 {
		t.Fatalf("no pool activity recorded: %+v", st)
	}
	if st.Cache.Hits+st.Cache.Misses == 0 {
		t.Fatalf("enabled cache recorded no lookups: %+v", st.Cache)
	}

	sdb, err := twsim.OpenMemSharded(twsim.ShardedOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sdb.Close()
	if _, err := sdb.AddBatch(data); err != nil {
		t.Fatal(err)
	}
	if _, err := sdb.Search(data[0], 0.4); err != nil {
		t.Fatal(err)
	}
	if st := sdb.StorageStats(); st.Data.Reads == 0 {
		t.Fatalf("sharded StorageStats recorded no reads: %+v", st)
	}
}
