package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	twsim "repro"
	"repro/internal/pagefile"
)

// postStatus POSTs body to path and returns the status code and the JSON
// error message (empty on success).
func postStatus(t *testing.T, ts *httptest.Server, path, body string) (int, string) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var ae apiError
	_ = json.Unmarshal(raw, &ae)
	return resp.StatusCode, ae.Error
}

// faultBackend fails every query with err. Only the methods the query
// handlers call are implemented; the embedded nil Backend panics if any
// other one is reached.
type faultBackend struct {
	twsim.Backend
	err error
}

func (f faultBackend) DefaultBand() int { return 0 }

func (f faultBackend) SearchCtx(context.Context, []float64, float64, int) (*twsim.Result, error) {
	return nil, f.err
}

func (f faultBackend) NearestKCtx(context.Context, []float64, int, int) (*twsim.Result, error) {
	return nil, f.err
}

// TestQueryErrorStatus: a query rejected for its own inputs
// (twsim.ErrInvalidQuery) answers 400; a storage fault — I/O, checksum,
// exhausted buffer pool — is the server's fault and answers 500; an
// expired deadline answers 503. Both query endpoints map identically.
func TestQueryErrorStatus(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"invalid", fmt.Errorf("%w: negative tolerance -1", twsim.ErrInvalidQuery), http.StatusBadRequest},
		{"non-finite", fmt.Errorf("%w: %w", twsim.ErrInvalidQuery, twsim.ErrNonFinite), http.StatusBadRequest},
		{"corrupt-page", fmt.Errorf("shard 1: %w (page 7)", pagefile.ErrPageCorrupt), http.StatusInternalServerError},
		{"io", errors.New("read feature.rtree: input/output error"), http.StatusInternalServerError},
		{"deadline", fmt.Errorf("shard 0: %w", context.DeadlineExceeded), http.StatusServiceUnavailable},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(NewBackend(faultBackend{err: tc.err}))
			defer ts.Close()
			for path, body := range map[string]string{
				"/search": `{"query":[1,2,3],"epsilon":0.5}`,
				"/knn":    `{"query":[1,2,3],"k":2}`,
			} {
				if status, msg := postStatus(t, ts, path, body); status != tc.want || msg != tc.err.Error() {
					t.Errorf("%s: %d %q, want %d %q", path, status, msg, tc.want, tc.err)
				}
			}
		})
	}
}

// TestInvalidQueryStatus400: the real engine's validation errors reach the
// client as 400 on both query endpoints.
func TestInvalidQueryStatus400(t *testing.T) {
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
		{"/search", `{"query":[],"epsilon":0.5}`},
		{"/search", `{"query":[1,2,3],"epsilon":-0.5}`},
		{"/search", `{"query":[1,2,3],"epsilon":0.5,"band":-2}`},
		{"/knn", `{"query":[],"k":2}`},
		{"/knn", `{"query":[1,2,3],"k":2,"band":-1}`},
	} {
		if status, msg := postStatus(t, ts, tc.path, tc.body); status != http.StatusBadRequest {
			t.Errorf("%s %s: %d %q, want 400", tc.path, tc.body, status, msg)
		}
	}
	if status, msg := postStatus(t, ts, "/search", `{"query":[1,2,3],"epsilon":0.5}`); status != http.StatusOK {
		t.Fatalf("valid query after rejections: %d %q", status, msg)
	}
}
