package server

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	twsim "repro"
)

func newBandServer(t *testing.T, opts twsim.Options) *Client {
	t.Helper()
	db, err := twsim.OpenMem(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(db)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		db.Close()
	})
	return NewClient(ts.URL, ts.Client())
}

func bandWalks(seed int64, n int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for i := range out {
		s := make([]float64, 16)
		s[0] = rng.Float64() * 4
		for j := 1; j < len(s); j++ {
			s[j] = s[j-1] + rng.Float64()*0.4 - 0.2
		}
		out[i] = s
	}
	return out
}

// TestSearchBandRequestField: the "band" field on /search and /knn selects
// the banded distance per request — explicit values override the server's
// default, an omitted field falls back to it, and the answers agree with
// the engine called directly.
func TestSearchBandRequestField(t *testing.T) {
	data := bandWalks(11, 40)
	c := newBandServer(t, twsim.Options{})
	if _, err := c.AddBatchIDs(data); err != nil {
		t.Fatal(err)
	}
	oracle, err := twsim.OpenMem(twsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()
	if _, err := oracle.AddBatch(data); err != nil {
		t.Fatal(err)
	}

	q, eps, band := data[5], 0.6, 3
	want, err := oracle.SearchCtx(context.Background(), q, eps, band)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.SearchCtx(context.Background(), q, eps, band)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Matches) != len(want.Matches) {
		t.Fatalf("banded /search: %d matches, engine %d", len(got.Matches), len(want.Matches))
	}
	for i, m := range want.Matches {
		if got.Matches[i].ID != uint32(m.ID) || got.Matches[i].Dist != m.Dist {
			t.Fatalf("banded /search match %d: %+v, engine %+v", i, got.Matches[i], m)
		}
	}

	// Explicit band 0 must agree with the omitted field on a default-band-0
	// server (both unconstrained).
	plain, err := c.Search(q, eps)
	if err != nil {
		t.Fatal(err)
	}
	zero, err := c.SearchCtx(context.Background(), q, eps, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Matches) != len(zero.Matches) {
		t.Fatalf("band 0 (%d matches) != omitted (%d matches)", len(zero.Matches), len(plain.Matches))
	}

	// Banded k-NN through the API agrees with the engine.
	wantRes, err := oracle.NearestKCtx(context.Background(), q, 5, band)
	if err != nil {
		t.Fatal(err)
	}
	gotRes, err := c.NearestKCtx(context.Background(), q, 5, band)
	if err != nil {
		t.Fatal(err)
	}
	wantK, gotK := wantRes.Matches, gotRes.Matches
	if len(gotK) != len(wantK) {
		t.Fatalf("banded /knn: %d matches, engine %d", len(gotK), len(wantK))
	}
	for i, m := range wantK {
		if gotK[i].ID != uint32(m.ID) || gotK[i].Dist != m.Dist {
			t.Fatalf("banded /knn rank %d: %+v, engine %+v", i, gotK[i], m)
		}
	}
}

// TestServerDefaultBand: a server over a database opened with Options.Band
// answers band-omitted requests under that default.
func TestServerDefaultBand(t *testing.T) {
	data := bandWalks(13, 40)
	const band = 2
	c := newBandServer(t, twsim.Options{Band: band})
	if _, err := c.AddBatchIDs(data); err != nil {
		t.Fatal(err)
	}
	oracle, err := twsim.OpenMem(twsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()
	if _, err := oracle.AddBatch(data); err != nil {
		t.Fatal(err)
	}
	q, eps := data[9], 0.6
	want, err := oracle.SearchCtx(context.Background(), q, eps, band)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Search(q, eps) // band omitted → server default
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Matches) != len(want.Matches) {
		t.Fatalf("default-band server: %d matches, engine band=%d gives %d",
			len(got.Matches), band, len(want.Matches))
	}
	for i, m := range want.Matches {
		if got.Matches[i].ID != uint32(m.ID) || got.Matches[i].Dist != m.Dist {
			t.Fatalf("default-band match %d: %+v, engine %+v", i, got.Matches[i], m)
		}
	}
}

// TestNegativeBandRejected400: a negative band half-width on /search or
// /knn is a client error — 400 with a named reason, never a query under an
// undefined distance.
func TestNegativeBandRejected400(t *testing.T) {
	db, err := twsim.OpenMem(twsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Add([]float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(db))
	defer ts.Close()
	for _, tc := range []struct{ path, body string }{
		{"/search", `{"query":[1,2,3],"epsilon":0.5,"band":-1}`},
		{"/knn", `{"query":[1,2,3],"k":2,"band":-5}`},
	} {
		status, msg := postStatus(t, ts, tc.path, tc.body)
		if status != http.StatusBadRequest || !strings.Contains(msg, "negative band") {
			t.Errorf("negative band on %s: %d %q, want a 400 naming the band", tc.path, status, msg)
		}
	}
}
