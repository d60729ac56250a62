package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"sync"
	"time"

	twsim "repro"
	"repro/internal/dtw"
	"repro/internal/seq"
)

// wireResult is the /search and /knn reply as the benchmark reads it.
type wireResult struct {
	Matches []struct {
		ID   uint32  `json:"id"`
		Dist float64 `json:"dist"`
	} `json:"matches"`
	Stats struct {
		Candidates       int   `json:"candidates"`
		DTWCalls         int   `json:"dtw_calls"`
		LBKimPruned      int   `json:"lb_kim_pruned"`
		LBPAAPruned      int   `json:"lb_paa_pruned"`
		LBKeoghPruned    int   `json:"lb_keogh_pruned"`
		LBYiPruned       int   `json:"lb_yi_pruned"`
		LBImprovedPruned int   `json:"lb_improved_pruned"`
		CorridorPruned   int   `json:"corridor_pruned"`
		WallMicros       int64 `json:"wall_us"`
	} `json:"stats"`
	CacheHit bool `json:"cache_hit"`
}

func (w *wireResult) conserved() bool {
	s := w.Stats
	return s.Candidates == s.LBKimPruned+s.LBPAAPruned+s.LBKeoghPruned+s.LBYiPruned+
		s.LBImprovedPruned+s.CorridorPruned+s.DTWCalls
}

type ackedAdd struct {
	id         int
	values     seq.Sequence
	sent, done time.Duration
}

// readBack reads every acknowledged add back with GET /sequences/{id} and
// checks the stored values are the ones sent, bit for bit.
func (r *runner) readBack() []ackedAdd {
	var acked []ackedAdd
	for _, ss := range [][]sample{r.main, r.probes, r.churn} {
		for i := range ss {
			s := &ss[i]
			if s.kind != kindAdd || !s.ok() {
				continue
			}
			var ack struct {
				ID *int `json:"id"`
			}
			if err := json.Unmarshal(s.resp, &ack); err != nil || ack.ID == nil {
				r.fail("add %d: unreadable acknowledgement %q", s.idx, s.resp)
				continue
			}
			acked = append(acked, ackedAdd{id: *ack.ID, values: s.q, sent: s.sent, done: s.done})
		}
	}
	sort.Slice(acked, func(i, j int) bool { return acked[i].id < acked[j].id })
	for _, a := range acked {
		b, code, err := r.cl.get(fmt.Sprintf("/sequences/%d", a.id))
		var got struct {
			Values []float64 `json:"values"`
		}
		if err == nil && code == 200 {
			err = json.Unmarshal(b, &got)
		}
		if err != nil || code != 200 || !sameBits(got.Values, a.values) {
			r.fail("acknowledged add id %d does not read back (status %d, %v)", a.id, code, err)
		}
	}
	return acked
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

type queryKey struct {
	kind   opKind
	stream uint64
	idx    int
}

func keyOf(o *op) queryKey { return queryKey{o.kind, o.stream, o.idx} }

// openTwin opens a private copy of the bulk-loaded directory in-process,
// configured as the daemon is, but serial and without a result cache, so
// its answers and work counters are deterministic.
func (r *runner) openTwin(name string) (*twsim.DB, error) {
	dir := filepath.Join(r.work, name)
	if err := copyDir(r.pristine, dir); err != nil {
		return nil, err
	}
	return twsim.Open(dir, twsim.Options{Band: r.w.band, RefineWorkers: 1, SeqCacheBytes: 4 << 20})
}

func (r *runner) answer(db *twsim.DB, o *op) (*twsim.Result, error) {
	if o.kind == kindKNN {
		return db.NearestKCtx(context.Background(), o.q, r.w.k, r.w.band)
	}
	return db.SearchCtx(context.Background(), o.q, r.w.eps, r.w.band)
}

// check compares every answer the daemon gave with the twin's, checks each
// response's work counters obey candidates = Σpruned + dtw_calls, and
// checks a seeded sample of the twin's answers against a brute-force scan
// of the final contents. Queries sent before the first add are compared
// exactly with the twin before it applies the adds. Churn queries race
// adds, so the twin answers them from the final state, and a response must
// hold every match from the corpus and from adds acknowledged before it
// was sent, and no match from an add sent after it returned.
func (r *runner) check(acked []ackedAdd) error {
	twin, err := r.openTwin("twin")
	if err != nil {
		return err
	}
	defer twin.Close()
	exact := append(queriesOf(r.main), queriesOf(r.probes)...)
	racing := queriesOf(r.churn)
	if err := r.compare(twin, exact, nil); err != nil {
		return err
	}
	final := append([]seq.Sequence{}, r.corpus...)
	addAt := map[int]ackedAdd{}
	for i, a := range acked {
		if a.id != len(r.corpus)+i {
			return fmt.Errorf("acknowledged add ids are not dense: %d at position %d", a.id, i)
		}
		id, err := twin.Add(a.values)
		if err != nil || int(id) != a.id {
			return fmt.Errorf("twin add: id %d want %d: %v", id, a.id, err)
		}
		final = append(final, a.values)
		addAt[a.id] = a
	}
	if err := r.compare(twin, racing, addAt); err != nil {
		return err
	}
	r.report["checked_responses"] = len(exact) + len(racing)
	r.properties()
	return r.bruteForce(twin, final)
}

// properties reports the measured workload properties that claims about
// an input property cite: work per computed query and result-cache hit
// share in the timed traffic and in the churn phase, and the heap's size
// against the daemon's decoded-sequence cache (4 MiB by default).
func (r *runner) properties() {
	var computed, candidates, dpCalls int
	for i := range r.main {
		if s := &r.main[i]; s.kind != kindAdd && !s.cacheHit {
			computed++
			candidates += s.candidates
			dpCalls += s.dtwCalls
		}
	}
	hitShare := func(a, b serverStats) float64 {
		h, m := b.ResultCache.Hits-a.ResultCache.Hits, b.ResultCache.Misses-a.ResultCache.Misses
		return ratio(float64(h), float64(h+m))
	}
	r.report["properties"] = map[string]any{
		"candidates_per_query":   ratio(float64(candidates), float64(computed)),
		"dp_calls_per_query":     ratio(float64(dpCalls), float64(computed)),
		"rcache_hit_share":       hitShare(r.statsBefore, r.statsTimed),
		"churn_rcache_hit_share": hitShare(r.statsTimed, r.statsAft),
		"heap_bytes":             r.statsAft.DataBytes,
		"heap_over_seq_cache":    float64(r.statsAft.DataBytes) / float64(4<<20),
		"daemon_flags":           r.w.flags,
	}
}

func queriesOf(ss []sample) []*sample {
	var out []*sample
	for i := range ss {
		if ss[i].kind != kindAdd && ss[i].ok() {
			out = append(out, &ss[i])
		}
	}
	return out
}

// compare checks each response against the twin's answer for its query;
// with addAt set, matches from those adds are judged by when the add was
// sent and acknowledged relative to the query.
func (r *runner) compare(twin *twsim.DB, queries []*sample, addAt map[int]ackedAdd) error {
	want := map[queryKey]*twsim.Result{}
	var todo []*op
	for _, s := range queries {
		if _, ok := want[keyOf(s.op)]; !ok {
			want[keyOf(s.op)] = nil
			todo = append(todo, s.op)
		}
	}
	if err := parallel(r.conns, len(todo), func(i int) error {
		res, err := r.answer(twin, todo[i])
		if err == nil {
			r.mu.Lock()
			want[keyOf(todo[i])] = res
			r.mu.Unlock()
		}
		return err
	}); err != nil {
		return fmt.Errorf("twin: %w", err)
	}
	for _, s := range queries {
		var got wireResult
		if err := json.Unmarshal(s.resp, &got); err != nil {
			r.fail("%s %d: undecodable response: %v", kindNames[s.kind], s.idx, err)
			continue
		}
		s.wallUS, s.candidates, s.dtwCalls, s.cacheHit = got.Stats.WallMicros, got.Stats.Candidates, got.Stats.DTWCalls, got.CacheHit
		if !got.conserved() {
			r.fail("%s %d: candidates != Σpruned + dtw_calls: %+v", kindNames[s.kind], s.idx, got.Stats)
		}
		exp := want[keyOf(s.op)].Matches
		if addAt == nil {
			if len(got.Matches) != len(exp) {
				r.fail("%s %d: %d matches, twin has %d", kindNames[s.kind], s.idx, len(got.Matches), len(exp))
				continue
			}
			for i, m := range got.Matches {
				if m.ID != uint32(exp[i].ID) || math.Float64bits(m.Dist) != math.Float64bits(exp[i].Dist) {
					r.fail("%s %d: match %d is (%d, %v), twin has (%d, %v)", kindNames[s.kind], s.idx, i, m.ID, m.Dist, exp[i].ID, exp[i].Dist)
					break
				}
			}
			continue
		}
		dist := map[uint32]float64{}
		for _, m := range exp {
			dist[uint32(m.ID)] = m.Dist
		}
		seen := map[uint32]bool{}
		for i, m := range got.Matches {
			d, ok := dist[m.ID]
			a, isAdd := addAt[int(m.ID)]
			switch {
			case !ok || math.Float64bits(d) != math.Float64bits(m.Dist):
				r.fail("range %d: match (%d, %v) is not in the twin's answer", s.idx, m.ID, m.Dist)
			case isAdd && a.sent > s.done:
				r.fail("range %d: match %d comes from an add sent after the response", s.idx, m.ID)
			case i > 0 && (got.Matches[i-1].Dist > m.Dist || (got.Matches[i-1].Dist == m.Dist && got.Matches[i-1].ID > m.ID)):
				r.fail("range %d: matches out of order", s.idx)
			}
			seen[m.ID] = true
		}
		for _, m := range exp {
			a, isAdd := addAt[int(m.ID)]
			if !seen[uint32(m.ID)] && (!isAdd || a.done < s.sent) {
				r.fail("range %d: missing match %d", s.idx, m.ID)
			}
		}
	}
	return nil
}

// bruteForce checks a seeded sample of queries of each kind the workload
// sends against a scan of every stored sequence with the plain DP.
func (r *runner) bruteForce(twin *twsim.DB, data []seq.Sequence) error {
	kinds := []opKind{kindRange}
	if r.w.knnShare > 0 || r.w.probeKNN > 0 {
		kinds = append(kinds, kindKNN)
	}
	checked := 0
	for _, kind := range kinds {
		for i := range 2 {
			o := r.queryOp(kind, streamBrute, i)
			res, err := r.answer(twin, &o)
			if err != nil {
				return err
			}
			d := make([]float64, len(data))
			_ = parallel(r.conns, len(data), func(j int) error {
				if r.w.band >= 1 {
					d[j] = dtw.BandDistance(data[j], o.q, seq.LInf, r.w.band)
				} else {
					d[j] = dtw.Distance(data[j], o.q, seq.LInf)
				}
				return nil
			})
			var exp []twsim.Match
			for j, v := range d {
				if kind == kindKNN || v <= r.w.eps {
					exp = append(exp, twsim.Match{ID: twsim.ID(j), Dist: v})
				}
			}
			sort.Slice(exp, func(a, b int) bool {
				if exp[a].Dist != exp[b].Dist {
					return exp[a].Dist < exp[b].Dist
				}
				return exp[a].ID < exp[b].ID
			})
			if kind == kindKNN && len(exp) > r.w.k {
				exp = exp[:r.w.k]
			}
			ok := len(exp) == len(res.Matches)
			for j := 0; ok && j < len(exp); j++ {
				ok = exp[j].ID == res.Matches[j].ID && math.Float64bits(exp[j].Dist) == math.Float64bits(res.Matches[j].Dist)
			}
			if !ok {
				r.fail("brute force: %s query %d disagrees with the twin (%d vs %d matches)", kindNames[kind], i, len(exp), len(res.Matches))
			}
			checked++
		}
	}
	r.report["brute_force_queries"] = checked
	return nil
}

// parallel runs fn(0..n-1) on up to workers goroutines and returns the
// first error.
func parallel(workers, n int, fn func(i int) error) error {
	var wg sync.WaitGroup
	var once sync.Once
	var first error
	next := make(chan int)
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := fn(i); err != nil {
					once.Do(func() { first = err })
				}
			}
		}()
	}
	for i := range n {
		next <- i
	}
	close(next)
	wg.Wait()
	return first
}
