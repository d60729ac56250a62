package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// Client is a Go client for the twsimd HTTP API.
type Client struct {
	base string
	http *http.Client
}

// NewClient returns a client for the server at base (e.g.
// "http://localhost:7474"). httpClient may be nil for http.DefaultClient.
func NewClient(base string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{base: base, http: httpClient}
}

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

// DefaultRetryAfter is the backoff ErrOverloaded carries when the server
// sent a Retry-After header the client could not interpret: backing off a
// conservative second beats hammering a server that explicitly asked for
// a pause. A missing header still yields RetryAfter 0 (no advice given).
const DefaultRetryAfter = time.Second

// ErrOverloaded is returned when the server shed the request at admission
// control (429). RetryAfter carries the server's suggested backoff, when
// given. Detect it with errors.As and respect RetryAfter before resending.
type ErrOverloaded struct {
	Message    string
	RetryAfter time.Duration
}

func (e *ErrOverloaded) Error() string {
	if e.RetryAfter > 0 {
		return fmt.Sprintf("twsimd: overloaded: %s (retry after %s)", e.Message, e.RetryAfter)
	}
	return "twsimd: overloaded: " + e.Message
}

func (c *Client) do(method, path string, body, out any) error {
	return c.doCtx(nil, method, path, body, out)
}

// doCtx issues one request; a nil ctx means no cancellation. A 429 response
// becomes *ErrOverloaded with the server's Retry-After parsed.
func (c *Client) doCtx(ctx context.Context, method, path string, body, out any) error {
	var reqBody *bytes.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return err
		}
		reqBody = bytes.NewReader(raw)
	} else {
		reqBody = bytes.NewReader(nil)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, reqBody)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	if resp.StatusCode >= 400 {
		var ae apiError
		if err := dec.Decode(&ae); err != nil || ae.Error == "" {
			ae.Error = resp.Status
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			return &ErrOverloaded{Message: ae.Error, RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After"))}
		}
		if ae.Error == resp.Status {
			return fmt.Errorf("twsimd: %s", resp.Status)
		}
		return fmt.Errorf("twsimd: %s (%s)", ae.Error, resp.Status)
	}
	if out == nil {
		return nil
	}
	return dec.Decode(out)
}

// parseRetryAfter interprets a Retry-After header per RFC 9110 §10.2.3:
// either delay-seconds or an HTTP-date. An absent header means no advice
// (0); a header that is present but unusable — unparseable, or a date
// already in the past — yields DefaultRetryAfter, since the server did ask
// for a pause even if we cannot tell how long.
func parseRetryAfter(h string) time.Duration {
	if h == "" {
		return 0
	}
	if secs, err := strconv.Atoi(h); err == nil {
		if secs <= 0 {
			return DefaultRetryAfter
		}
		return time.Duration(secs) * time.Second
	}
	if at, err := http.ParseTime(h); err == nil {
		if d := time.Until(at); d > 0 {
			return d
		}
	}
	return DefaultRetryAfter
}

// Health checks the server's liveness endpoint.
func (c *Client) Health() error {
	return c.do(http.MethodGet, "/healthz", nil, nil)
}

// Stats returns the database statistics.
func (c *Client) Stats() (sequences int, dataBytes int64, indexPages int, err error) {
	var out struct {
		Sequences  int   `json:"sequences"`
		DataBytes  int64 `json:"data_bytes"`
		IndexPages int   `json:"index_pages"`
	}
	if err := c.do(http.MethodGet, "/stats", nil, &out); err != nil {
		return 0, 0, 0, err
	}
	return out.Sequences, out.DataBytes, out.IndexPages, nil
}

// Add stores one sequence and returns its ID.
func (c *Client) Add(values []float64) (uint32, error) {
	var out struct {
		ID uint32 `json:"id"`
	}
	err := c.do(http.MethodPost, "/sequences", map[string]any{"values": values}, &out)
	return out.ID, err
}

// AddBatch stores many sequences, returning the first assigned ID. Against
// a sharded server the assigned IDs are not consecutive — use AddBatchIDs
// to learn all of them.
func (c *Client) AddBatch(sequences [][]float64) (uint32, error) {
	var out struct {
		FirstID uint32 `json:"first_id"`
	}
	err := c.do(http.MethodPost, "/sequences/batch",
		map[string]any{"sequences": sequences}, &out)
	return out.FirstID, err
}

// AddBatchIDs stores many sequences, returning every assigned ID in input
// order (sharded servers interleave IDs across shards).
func (c *Client) AddBatchIDs(sequences [][]float64) ([]uint32, error) {
	var out struct {
		IDs []uint32 `json:"ids"`
	}
	err := c.do(http.MethodPost, "/sequences/batch",
		map[string]any{"sequences": sequences}, &out)
	return out.IDs, err
}

// Get fetches a stored sequence.
func (c *Client) Get(id uint32) ([]float64, error) {
	var out struct {
		Values []float64 `json:"values"`
	}
	err := c.do(http.MethodGet, fmt.Sprintf("/sequences/%d", id), nil, &out)
	return out.Values, err
}

// Remove deletes a stored sequence, reporting whether it was present.
func (c *Client) Remove(id uint32) (bool, error) {
	var out struct {
		Removed bool `json:"removed"`
	}
	err := c.do(http.MethodDelete, fmt.Sprintf("/sequences/%d", id), nil, &out)
	return out.Removed, err
}

// Search runs a whole-matching similarity query under the server's default
// band.
func (c *Client) Search(query []float64, epsilon float64) (*SearchResponse, error) {
	var out SearchResponse
	err := c.do(http.MethodPost, "/search",
		map[string]any{"query": query, "epsilon": epsilon}, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// SearchCtx is Search under an explicit Sakoe–Chiba band half-width
// (0 = unconstrained, ≥ 1 = banded; band < 0 omits the field, meaning the
// server's default), governed by a context: cancelling ctx closes the
// connection, which the server observes and abandons the query server-side
// too.
func (c *Client) SearchCtx(ctx context.Context, query []float64, epsilon float64, band int) (*SearchResponse, error) {
	body := map[string]any{"query": query, "epsilon": epsilon}
	if band >= 0 {
		body["band"] = band
	}
	var out SearchResponse
	if err := c.doCtx(ctx, http.MethodPost, "/search", body, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// NearestK returns the k nearest sequences under time warping, under the
// server's default band.
func (c *Client) NearestK(query []float64, k int) ([]MatchJSON, error) {
	var out struct {
		Matches []MatchJSON `json:"matches"`
	}
	err := c.do(http.MethodPost, "/knn", map[string]any{"query": query, "k": k}, &out)
	return out.Matches, err
}

// NearestKCtx is NearestK under an explicit band half-width (band < 0
// means the server's default), governed by a context (see SearchCtx),
// returning the full response with stats, request ID and cache-hit flag.
func (c *Client) NearestKCtx(ctx context.Context, query []float64, k, band int) (*SearchResponse, error) {
	body := map[string]any{"query": query, "k": k}
	if band >= 0 {
		body["band"] = band
	}
	var out SearchResponse
	if err := c.doCtx(ctx, http.MethodPost, "/knn", body, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// BuildSubseqIndex builds the server-side subsequence index.
func (c *Client) BuildSubseqIndex(windowLens []int, step int) (int, error) {
	var out struct {
		Windows int `json:"windows"`
	}
	err := c.do(http.MethodPost, "/subseq/build",
		map[string]any{"window_lens": windowLens, "step": step}, &out)
	return out.Windows, err
}

// SearchSubsequences queries the server-side subsequence index.
func (c *Client) SearchSubsequences(query []float64, epsilon float64) ([]SubMatchJSON, error) {
	var out struct {
		Matches []SubMatchJSON `json:"matches"`
	}
	err := c.do(http.MethodPost, "/subseq/search",
		map[string]any{"query": query, "epsilon": epsilon}, &out)
	return out.Matches, err
}
