package core

import (
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/dtw"
	"repro/internal/seq"
	"repro/internal/synth"
)

func TestFeatureIndexInsertRangeQuery(t *testing.T) {
	idx, err := NewFeatureIndex(IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	rng := rand.New(rand.NewSource(1))
	data := synth.RandomWalkSetVaryLen(rng, 200, 5, 30)
	for i, s := range data {
		if err := idx.Insert(seq.ID(i), s); err != nil {
			t.Fatal(err)
		}
	}
	if idx.Len() != 200 {
		t.Fatalf("Len = %d", idx.Len())
	}
	if err := idx.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The range query must return exactly { S : LBKim(S, Q) <= eps }.
	for trial := 0; trial < 20; trial++ {
		q := synth.Query(rng, data)
		eps := rng.Float64() * 2
		fq := seq.MustFeature(q)
		got, err := idx.RangeQuery(fq, eps)
		if err != nil {
			t.Fatal(err)
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		var want []seq.ID
		for i, s := range data {
			if dtw.LBKim(s, q) <= eps {
				want = append(want, seq.ID(i))
			}
		}
		if !sameIDs(got, want) {
			t.Fatalf("eps %g: got %v, want %v", eps, got, want)
		}
	}
}

func TestFeatureIndexDelete(t *testing.T) {
	idx, err := NewFeatureIndex(IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	s := seq.Sequence{1, 2, 3}
	if err := idx.Insert(7, s); err != nil {
		t.Fatal(err)
	}
	found, err := idx.Delete(7, s)
	if err != nil || !found {
		t.Fatalf("Delete = %v, %v", found, err)
	}
	if idx.Len() != 0 {
		t.Errorf("Len = %d after delete", idx.Len())
	}
	found, err = idx.Delete(7, s)
	if err != nil || found {
		t.Errorf("second Delete = %v, %v", found, err)
	}
}

func TestFeatureIndexEmptySequenceRejected(t *testing.T) {
	idx, err := NewFeatureIndex(IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	if err := idx.Insert(0, nil); err == nil {
		t.Error("Insert of empty sequence accepted")
	}
	if _, err := idx.Delete(0, nil); err == nil {
		t.Error("Delete of empty sequence accepted")
	}
}

func TestFeatureIndexBulkLoadMismatch(t *testing.T) {
	idx, err := NewFeatureIndex(IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	if err := idx.BulkLoad([]seq.ID{1}, nil); err == nil {
		t.Error("mismatched BulkLoad accepted")
	}
}

func TestFeatureIndexPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idx.rtree")
	idx, err := NewFeatureIndex(IndexOptions{OnDiskPath: path})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	data := synth.RandomWalkSetVaryLen(rng, 100, 5, 20)
	for i, s := range data {
		if err := idx.Insert(seq.ID(i), s); err != nil {
			t.Fatal(err)
		}
	}
	if err := idx.Close(); err != nil {
		t.Fatal(err)
	}

	idx2, err := OpenFeatureIndex(path, IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer idx2.Close()
	if idx2.Len() != 100 {
		t.Fatalf("reopened Len = %d", idx2.Len())
	}
	q := synth.Query(rng, data)
	fq := seq.MustFeature(q)
	got, err := idx2.RangeQuery(fq, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	var want int
	for _, s := range data {
		if dtw.LBKim(s, q) <= 1.0 {
			want++
		}
	}
	if len(got) != want {
		t.Errorf("after reopen: %d candidates, want %d", len(got), want)
	}
}

func TestFeatureIndexNearestWalkOrder(t *testing.T) {
	idx, err := NewFeatureIndex(IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	rng := rand.New(rand.NewSource(3))
	data := synth.RandomWalkSetVaryLen(rng, 100, 5, 20)
	for i, s := range data {
		if err := idx.Insert(seq.ID(i), s); err != nil {
			t.Fatal(err)
		}
	}
	q := synth.Query(rng, data)
	fq := seq.MustFeature(q)
	prev := -1.0
	count := 0
	identity := func(d float64) float64 { return d }
	_, err = idx.NearestWalkKeyed(fq, identity, nil, func(id seq.ID, lb float64) bool {
		if lb < prev {
			t.Fatalf("lower bounds out of order: %g after %g", lb, prev)
		}
		if want := dtw.LBKim(data[id], q); lb != want {
			t.Fatalf("id %d: walk lb %g, direct %g", id, lb, want)
		}
		prev = lb
		count++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 100 {
		t.Errorf("walk visited %d of 100", count)
	}
}

func TestIndexPagesSmallFractionOfData(t *testing.T) {
	// The paper: "the R-tree whose size is less than 4% of the database
	// size" (§5.2). With 1 KB pages and length-200+ sequences the ratio
	// here is similar.
	rng := rand.New(rand.NewSource(4))
	data := synth.StockSet(rng, synth.StockOptions{Count: 300, MeanLen: 200, LenSpread: 30})
	db, idx := buildFixture(t, data)
	idxBytes := int64(idx.Pages()) * 512
	dataBytes := db.Bytes()
	if ratio := float64(idxBytes) / float64(dataBytes); ratio > 0.08 {
		t.Errorf("index/data ratio %.3f too large (idx %d B, data %d B)",
			ratio, idxBytes, dataBytes)
	}
}
