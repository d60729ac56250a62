package twsim_test

import (
	"testing"

	twsim "repro"
)

func TestSearchBatchMatchesSequential(t *testing.T) {
	db, err := twsim.OpenMem(twsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	data := randomWalks(61, 120, 10, 30)
	if _, err := db.AddAll(data); err != nil {
		t.Fatal(err)
	}
	queries := data[:20]
	const eps = 0.3
	batch, err := db.SearchBatchCtx(bg, queries, eps, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(queries) {
		t.Fatalf("batch returned %d results", len(batch))
	}
	for i, q := range queries {
		single, err := db.Search(q, eps)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch[i].Matches) != len(single.Matches) {
			t.Fatalf("query %d: batch %d matches, single %d",
				i, len(batch[i].Matches), len(single.Matches))
		}
		for j := range single.Matches {
			if batch[i].Matches[j].ID != single.Matches[j].ID {
				t.Fatalf("query %d match %d: id mismatch", i, j)
			}
		}
	}
}

func TestSearchBatchEdgeCases(t *testing.T) {
	db, err := twsim.OpenMem(twsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Add([]float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	// Empty batch.
	out, err := db.SearchBatchCtx(bg, nil, 1, 0, 0)
	if err != nil || len(out) != 0 {
		t.Errorf("empty batch = %v, %v", out, err)
	}
	// Negative epsilon.
	if _, err := db.SearchBatchCtx(bg, [][]float64{{1}}, -1, 0, 0); err == nil {
		t.Error("negative epsilon accepted")
	}
	// A bad query aborts with a useful error.
	if _, err := db.SearchBatchCtx(bg, [][]float64{{1, 2}, nil}, 1, 0, 2); err == nil {
		t.Error("empty query in batch accepted")
	}
	// parallelism larger than batch is fine.
	out, err = db.SearchBatchCtx(bg, [][]float64{{1, 2, 3}}, 0.5, 0, 64)
	if err != nil || len(out) != 1 {
		t.Fatalf("oversized parallelism: %v, %v", out, err)
	}
}

func TestCompactTo(t *testing.T) {
	db, err := twsim.OpenMem(twsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	data := randomWalks(62, 30, 5, 15)
	if _, err := db.AddAll(data); err != nil {
		t.Fatal(err)
	}
	for _, id := range []twsim.ID{3, 10, 20} {
		if _, err := db.Remove(id); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	dst, mapping, err := db.CompactTo(dir, twsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	if dst.Len() != 27 {
		t.Fatalf("compacted Len = %d", dst.Len())
	}
	if len(mapping) != 27 {
		t.Fatalf("mapping has %d entries", len(mapping))
	}
	if _, ok := mapping[3]; ok {
		t.Error("deleted id present in mapping")
	}
	// Every surviving sequence is intact under its new ID.
	for old, new := range mapping {
		got, err := dst.Get(new)
		if err != nil {
			t.Fatal(err)
		}
		want := data[old]
		if len(got) != len(want) {
			t.Fatalf("old %d -> new %d: length mismatch", old, new)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("old %d -> new %d: content mismatch", old, new)
			}
		}
	}
	// Search works on the compacted database and the source is untouched.
	if err := dst.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	res, err := dst.Search(data[0], 0)
	if err != nil || len(res.Matches) == 0 {
		t.Fatalf("compacted search: %v, %v", res, err)
	}
	if db.Len() != 27 {
		t.Errorf("source Len changed: %d", db.Len())
	}
}
