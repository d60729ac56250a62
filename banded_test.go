package twsim_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	twsim "repro"
)

// bandedBrute is the no-false-dismissal oracle for the banded query mode: a
// linear scan computing the exact banded distance for every live sequence,
// sorted the way Search reports matches (distance, then ID). Band 0 scans
// with the unconstrained distance, as a band-0 query answers.
func bandedBrute(data [][]float64, ids []twsim.ID, q []float64, base twsim.Base, eps float64, band int) []twsim.Match {
	var out []twsim.Match
	for i, s := range data {
		var d float64
		if band >= 1 {
			d = twsim.BandDistance(s, q, base, band)
		} else {
			d = twsim.Distance(s, q, base)
		}
		if d <= eps {
			out = append(out, twsim.Match{ID: ids[i], Dist: d})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// TestBandedSearchMatchesBruteForce: a banded index search must be
// bit-identical to the brute-force banded scan — across all three bases,
// both engines (single DB and ShardedDB), and serial vs parallel
// refinement. This is the tentpole soundness claim: every cascade tier
// lower-bounds BandDistance, so no banded match is ever dismissed.
func TestBandedSearchMatchesBruteForce(t *testing.T) {
	bases := map[string]twsim.Base{"linf": twsim.BaseLInf, "l1": twsim.BaseL1, "l2sq": twsim.BaseL2Sq}
	data := randomWalks(2027, 120, 12, 40)
	for name, base := range bases {
		for _, workers := range []int{1, 4} {
			for _, sharded := range []bool{false, true} {
				label := name + map[bool]string{false: "/db", true: "/sharded"}[sharded]
				if workers != 1 {
					label += "/workers4"
				}
				t.Run(label, func(t *testing.T) {
					opts := twsim.Options{Base: base, RefineWorkers: workers}
					var db queryDB
					var err error
					if sharded {
						db, err = twsim.OpenMemSharded(twsim.ShardedOptions{Options: opts, Shards: 3})
					} else {
						db, err = twsim.OpenMem(opts)
					}
					if err != nil {
						t.Fatal(err)
					}
					defer db.Close()
					ids, err := db.AddBatch(data)
					if err != nil {
						t.Fatal(err)
					}
					rng := rand.New(rand.NewSource(31))
					for trial := 0; trial < 8; trial++ {
						q := append([]float64(nil), data[rng.Intn(len(data))]...)
						for i := range q {
							q[i] += (rng.Float64() - 0.5) * 0.1
						}
						eps := 0.1 + rng.Float64()*0.6
						band := 1 + rng.Intn(6)
						want := bandedBrute(data, ids, q, base, eps, band)
						res, err := db.SearchCtx(bg, q, eps, band)
						if err != nil {
							t.Fatal(err)
						}
						if len(res.Matches) != len(want) {
							t.Fatalf("trial %d eps=%g band=%d: index %d matches, brute force %d",
								trial, eps, band, len(res.Matches), len(want))
						}
						for i := range want {
							if res.Matches[i] != want[i] {
								t.Fatalf("trial %d match %d: index %+v, brute force %+v",
									trial, i, res.Matches[i], want[i])
							}
						}
						// The conservation law must hold tier by tier under a band.
						st := res.Stats
						pruned := st.LBKimPruned + st.LBPAAPruned + st.LBKeoghPruned +
							st.LBYiPruned + st.LBImprovedPruned + st.CorridorPruned
						if pruned+st.DTWCalls != st.Candidates {
							t.Fatalf("trial %d: pruned %d + dtw %d != candidates %d",
								trial, pruned, st.DTWCalls, st.Candidates)
						}
					}
				})
			}
		}
	}
}

// TestNearestKBandMatchesBruteForce: banded k-NN against the brute-force
// banded top-k, on both backends (DB and ShardedDB).
func TestNearestKBandMatchesBruteForce(t *testing.T) {
	data := randomWalks(2029, 90, 10, 30)
	for _, sharded := range []bool{false, true} {
		name := map[bool]string{false: "db", true: "sharded"}[sharded]
		t.Run(name, func(t *testing.T) {
			var db queryDB
			var err error
			if sharded {
				db, err = twsim.OpenMemSharded(twsim.ShardedOptions{Shards: 3})
			} else {
				db, err = twsim.OpenMem(twsim.Options{})
			}
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			ids, err := db.AddBatch(data)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(37))
			for trial := 0; trial < 8; trial++ {
				q := append([]float64(nil), data[rng.Intn(len(data))]...)
				for i := range q {
					q[i] += (rng.Float64() - 0.5) * 0.08
				}
				k := 1 + rng.Intn(7)
				band := 1 + rng.Intn(5)
				all := bandedBrute(data, ids, q, twsim.BaseLInf, 1e18, band)
				want := all
				if len(want) > k {
					want = want[:k]
				}
				res, err := db.NearestKCtx(bg, q, k, band)
				if err != nil {
					t.Fatal(err)
				}
				got := res.Matches
				if len(got) != len(want) {
					t.Fatalf("trial %d k=%d band=%d: index %d, brute force %d",
						trial, k, band, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("trial %d rank %d: index %+v, brute force %+v",
							trial, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestFlatEngineOracle: Search, NearestK and SearchBatchCtx stay
// bit-identical to a brute-force scan of the live sequences through a
// lifecycle of bulk load, a second batch, and interleaved removes — across
// all three bases, both backends (DB and ShardedDB), serial and parallel
// refinement, and unbanded plus banded queries. Every range answer must
// also satisfy the conservation law, and the database must pass Verify.
// The name is kept from when this oracle compared the flat snapshot engine
// against the R-tree; the reference is now a brute-force scan.
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
						opts := twsim.Options{Base: base, RefineWorkers: workers, Band: band}
						var db queryDB
						var err error
						if sharded {
							db, err = twsim.OpenMemSharded(twsim.ShardedOptions{Options: opts, Shards: 3})
						} else {
							db, err = twsim.OpenMem(opts)
						}
						if err != nil {
							t.Fatal(err)
						}
						defer db.Close()

						ids, err := db.AddBatch(data)
						if err != nil {
							t.Fatal(err)
						}
						live := map[twsim.ID][]float64{}
						for i, id := range ids {
							live[id] = data[i]
						}
						rng := rand.New(rand.NewSource(99))
						checkBrute(t, db, live, base, band, rng, data)

						extraIDs, err := db.AddBatch(extra)
						if err != nil {
							t.Fatal(err)
						}
						for i, id := range extraIDs {
							live[id] = extra[i]
						}
						for i := 0; i < 25; i++ {
							id := extraIDs[rng.Intn(len(extraIDs))]
							if _, err := db.Remove(id); err != nil {
								t.Fatal(err)
							}
							delete(live, id)
						}
						checkBrute(t, db, live, base, band, rng, append(append([][]float64(nil), data...), extra...))

						if got := db.Len(); got != len(live) {
							t.Fatalf("Len = %d, want %d", got, len(live))
						}
						if err := db.Verify(); err != nil {
							t.Fatalf("Verify: %v", err)
						}
					})
				}
			}
		}
	}
}

// checkBrute runs Search, NearestK and SearchBatchCtx on db and demands
// bit-identical matches (same IDs, same float64 distances, same order) to
// a brute-force scan over live, the database's live sequences by ID.
// Queries are perturbed copies of pool entries.
func checkBrute(t *testing.T, db queryDB, live map[twsim.ID][]float64, base twsim.Base, band int, rng *rand.Rand, pool [][]float64) {
	t.Helper()
	var seqs [][]float64
	var ids []twsim.ID
	for id, s := range live {
		ids = append(ids, id)
		seqs = append(seqs, s)
	}
	for trial := 0; trial < 6; trial++ {
		q := append([]float64(nil), pool[rng.Intn(len(pool))]...)
		for i := range q {
			q[i] += (rng.Float64() - 0.5) * 0.1
		}
		eps := 0.1 + rng.Float64()*0.7

		r, err := db.Search(q, eps)
		if err != nil {
			t.Fatal(err)
		}
		if want := bandedBrute(seqs, ids, q, base, eps, band); !matchesEqual(r.Matches, want) {
			t.Fatalf("trial %d eps=%g: Search %d matches, brute force %d", trial, eps, len(r.Matches), len(want))
		}
		st := r.Stats
		pruned := st.LBKimPruned + st.LBPAAPruned + st.LBKeoghPruned +
			st.LBYiPruned + st.LBImprovedPruned + st.CorridorPruned
		if st.Candidates != pruned+st.DTWCalls {
			t.Fatalf("trial %d: conservation law broken: candidates=%d pruned=%d dtw=%d",
				trial, st.Candidates, pruned, st.DTWCalls)
		}

		k := 1 + rng.Intn(8)
		got, err := db.NearestK(q, k)
		if err != nil {
			t.Fatal(err)
		}
		want := bandedBrute(seqs, ids, q, base, math.Inf(1), band)
		if len(want) > k {
			want = want[:k]
		}
		if !matchesEqual(got, want) {
			t.Fatalf("trial %d k=%d: NearestK %v, brute force %v", trial, k, got, want)
		}
	}

	batch := make([][]float64, 5)
	for i := range batch {
		batch[i] = pool[rng.Intn(len(pool))]
	}
	const eps = 0.4
	rs, err := db.SearchBatchCtx(bg, batch, eps, db.DefaultBand(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		if want := bandedBrute(seqs, ids, batch[i], base, eps, band); !matchesEqual(r.Matches, want) {
			t.Fatalf("SearchBatchCtx query %d: %d matches, brute force %d", i, len(r.Matches), len(want))
		}
	}
}

// TestDefaultBandOption: a database opened with Options.Band answers every
// default-band query under that band — Search must agree with an explicit
// SearchCtx band on a band-less database.
func TestDefaultBandOption(t *testing.T) {
	data := randomWalks(2031, 60, 10, 24)
	const band = 3
	banded, err := twsim.OpenMem(twsim.Options{Band: band})
	if err != nil {
		t.Fatal(err)
	}
	defer banded.Close()
	plain, err := twsim.OpenMem(twsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if _, err := banded.AddBatch(data); err != nil {
		t.Fatal(err)
	}
	if _, err := plain.AddBatch(data); err != nil {
		t.Fatal(err)
	}
	q := data[7]
	const eps = 0.4
	want, err := plain.SearchCtx(bg, q, eps, band)
	if err != nil {
		t.Fatal(err)
	}
	got, err := banded.Search(q, eps)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Matches) != len(want.Matches) {
		t.Fatalf("default-band Search: %d matches, explicit SearchCtx %d",
			len(got.Matches), len(want.Matches))
	}
	for i := range want.Matches {
		if got.Matches[i] != want.Matches[i] {
			t.Fatalf("match %d: default-band %+v, explicit %+v", i, got.Matches[i], want.Matches[i])
		}
	}
	// Explicit band 0 on the banded database overrides back to unconstrained.
	wantU, err := plain.Search(q, eps)
	if err != nil {
		t.Fatal(err)
	}
	gotU, err := banded.SearchCtx(bg, q, eps, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotU.Matches) != len(wantU.Matches) {
		t.Fatalf("band-0 override: %d matches, unconstrained %d", len(gotU.Matches), len(wantU.Matches))
	}
	for i := range wantU.Matches {
		if gotU.Matches[i] != wantU.Matches[i] {
			t.Fatalf("band-0 override match %d: %+v, want %+v", i, gotU.Matches[i], wantU.Matches[i])
		}
	}
}

// TestNegativeBandRejected: every band-carrying entry point on both engines
// must reject a negative half-width instead of answering under an undefined
// distance.
func TestNegativeBandRejected(t *testing.T) {
	data := randomWalks(2033, 10, 8, 16)
	for _, sharded := range []bool{false, true} {
		name := map[bool]string{false: "db", true: "sharded"}[sharded]
		t.Run(name, func(t *testing.T) {
			var db queryDB
			var err error
			if sharded {
				db, err = twsim.OpenMemSharded(twsim.ShardedOptions{Shards: 2})
			} else {
				db, err = twsim.OpenMem(twsim.Options{})
			}
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if _, err := db.AddBatch(data); err != nil {
				t.Fatal(err)
			}
			q := data[0]
			if _, err := db.SearchCtx(bg, q, 0.5, -1); !errors.Is(err, twsim.ErrInvalidQuery) {
				t.Errorf("SearchCtx(band -1): %v, want ErrInvalidQuery", err)
			}
			if _, err := db.NearestKCtx(bg, q, 3, -2); !errors.Is(err, twsim.ErrInvalidQuery) {
				t.Errorf("NearestKCtx(band -2): %v, want ErrInvalidQuery", err)
			}
			if _, err := db.SearchBatchCtx(bg, [][]float64{q}, 0.5, -3, 0); !errors.Is(err, twsim.ErrInvalidQuery) {
				t.Errorf("SearchBatchCtx(band -3): %v, want ErrInvalidQuery", err)
			}
		})
	}
}

// TestEnvelopeSidecarPersistence: the PAA envelope store survives a
// close/reopen through its sidecar file, and any corruption of the sidecar
// is healed by a rebuild from the heap — never trusted, never fatal.
func TestEnvelopeSidecarPersistence(t *testing.T) {
	dir := t.TempDir()
	data := randomWalks(2039, 40, 8, 24)
	db, err := twsim.Create(dir, twsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ids, err := db.AddBatch(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	sidecar := filepath.Join(dir, "envelopes.paa")
	if _, err := os.Stat(sidecar); err != nil {
		t.Fatalf("sidecar not written on close: %v", err)
	}

	// Reopen: the sidecar loads and the store passes the full fsck.
	db, err = twsim.Open(dir, twsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Verify(); err != nil {
		t.Fatalf("verify after reopen: %v", err)
	}
	want, err := db.SearchCtx(bg, data[3], 0.4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt the sidecar (flip one payload byte). Open must fall back to a
	// rebuild from the heap and still answer identically.
	raw, err := os.ReadFile(sidecar)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(sidecar, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	db, err = twsim.Open(dir, twsim.Options{})
	if err != nil {
		t.Fatalf("open with corrupt sidecar: %v", err)
	}
	defer db.Close()
	if err := db.Verify(); err != nil {
		t.Fatalf("verify after rebuild: %v", err)
	}
	got, err := db.SearchCtx(bg, data[3], 0.4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Matches) != len(want.Matches) {
		t.Fatalf("after rebuild: %d matches, want %d", len(got.Matches), len(want.Matches))
	}
	for i := range want.Matches {
		if got.Matches[i] != want.Matches[i] {
			t.Fatalf("after rebuild match %d: %+v, want %+v", i, got.Matches[i], want.Matches[i])
		}
	}
	// A removal keeps the store in lockstep (fsck checks env count == live).
	if ok, err := db.Remove(ids[0]); err != nil || !ok {
		t.Fatalf("Remove: %v, %v", ok, err)
	}
	if err := db.Verify(); err != nil {
		t.Fatalf("verify after remove: %v", err)
	}
}
