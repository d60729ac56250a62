package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/seq"
)

type opKind uint8

const (
	kindRange opKind = iota
	kindKNN
	kindAdd
	numKinds
)

var kindNames = [numKinds]string{"range", "knn", "write"}
var kindPaths = [numKinds]string{"/search", "/knn", "/sequences"}

// op is one request a phase sends: q is its input (a query, or the values
// of an add), (stream, idx) names that input, and body is the request,
// encoded before timing starts.
type op struct {
	kind   opKind
	stream uint64
	idx    int
	q      seq.Sequence
	body   []byte
}

// sample is one request as the client saw it. Times are offsets from the
// run's epoch: due is when its client was ready to send it, sent when it
// was written, done when its response was read.
type sample struct {
	*op
	due, sent, done time.Duration
	gap             time.Duration // closed loop: client idle time before sending
	// Read from a query's response by the correctness check.
	wallUS               int64 // server-side query time
	candidates, dtwCalls int
	cacheHit             bool
	status               int
	resp                 []byte
	err                  error
}

func (s *sample) latencyMS() float64 { return float64(s.done-s.due) / 1e6 }
func (s *sample) ok() bool {
	return s.err == nil && (s.status == http.StatusOK || s.status == http.StatusCreated)
}

// client sends requests to one twsimd over at most conns connections.
type client struct {
	http  *http.Client
	base  string
	epoch time.Time
}

func newClient(base string, conns int, epoch time.Time) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{http: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base, epoch: epoch}
}

func (c *client) close() { c.http.CloseIdleConnections() }

func (c *client) now() time.Duration { return time.Since(c.epoch) }

// send issues o and fills s (whose due time the caller has set).
func (c *client) send(o *op, s *sample) {
	s.op = o
	s.sent = c.now()
	resp, err := c.http.Post(c.base+kindPaths[o.kind], "application/json", bytes.NewReader(o.body))
	if err == nil {
		s.status = resp.StatusCode
		s.resp, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	s.err = err
	s.done = c.now()
}

func (c *client) get(path string) ([]byte, int, error) {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return b, resp.StatusCode, err
}

// closedLoop runs ops in order from `clients` goroutines, each sending its
// next request when the previous one returns. It stops once minDur has
// passed and enough() holds for the per-kind completion counts, or at
// maxDur. With enough nil it sends every op; otherwise running out of ops
// is an error: the caller sized them too small.
func closedLoop(c *client, ops []op, clients int, minDur, maxDur time.Duration, enough func([numKinds]int) bool) ([]sample, error) {
	samples := make([]sample, len(ops))
	var next atomic.Int64
	var stop atomic.Bool
	var counts [numKinds]atomic.Int64
	var wg sync.WaitGroup
	start := c.now()
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := time.Duration(-1)
			for !stop.Load() {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				s := &samples[i]
				s.due = c.now()
				if prev >= 0 {
					s.gap = s.due - prev
				}
				c.send(&ops[i], s)
				prev = s.done
				counts[ops[i].kind].Add(1)
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-done:
			if enough == nil {
				return samples, nil
			}
			n := min(int(next.Load()), len(ops))
			return samples[:n], fmt.Errorf("closed loop ran out of its %d pre-generated requests", len(ops))
		case <-tick.C:
		}
		el := c.now() - start
		var got [numKinds]int
		for k := range got {
			got[k] = int(counts[k].Load())
		}
		if (el >= minDur && enough != nil && enough(got)) || el >= maxDur {
			stop.Store(true)
			<-done
			return samples[:min(int(next.Load()), len(ops))], nil
		}
	}
}
