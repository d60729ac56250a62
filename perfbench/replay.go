package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	twsim "repro"
	"repro/internal/core"
	"repro/internal/seqdb"
)

// layer names a span: one call into one layer of the query pipeline.
type layer uint8

const (
	layQuery layer = iota // the whole replayed query
	layFilter
	layKim
	layPAA
	layFetch
	layKeogh
	layYi
	layImproved
	layUB
	layDPUnbanded
	layDPBanded
	numLayers
)

var layerNames = [numLayers]string{"query", "filter", "lb_kim", "lb_paa", "fetch", "lb_keogh",
	"lb_yi", "lb_improved", "knn_ub", "dp_unbanded", "dp_banded"}

type span struct {
	query      int32
	parent     int32 // -1 for a query's root span
	layer      layer
	start, end time.Duration // from the tracer's epoch
}

// tracer keeps spans in memory; a span begun while another is open is its
// child.
type tracer struct {
	epoch time.Time
	spans []span
	cur   int32
	query int32
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), cur: -1} }

func (t *tracer) begin(l layer) int32 {
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{query: t.query, parent: t.cur, layer: l, start: time.Since(t.epoch)})
	t.cur = id
	return id
}

func (t *tracer) end(id int32) {
	t.spans[id].end = time.Since(t.epoch)
	t.cur = t.spans[id].parent
}

// selfTimes is each layer's total self time: its spans' durations minus
// the parts their direct children cover.
func (t *tracer) selfTimes() [numLayers]time.Duration {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	var self [numLayers]time.Duration
	for i, s := range t.spans {
		self[s.layer] += s.end - s.start - child[i]
	}
	return self
}

// write stores the replay spans and, as client/server pairs, the HTTP
// run's requests as gzipped JSON lines, one file per workload that the
// next traced run of it replaces. The server span of a request is its
// reported wall time; only its length is known, so it is placed at the
// start of the client span.
func (t *tracer) write(path string, http []sample, epoch time.Time) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	line := func(src string, q, id, parent int64, name string, start, end time.Duration) {
		fmt.Fprintf(w, `{"src":%q,"q":%d,"id":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			src, q, id, parent, name, start.Nanoseconds(), end.Nanoseconds())
	}
	shift := t.epoch.Sub(epoch)
	for i, s := range t.spans {
		line("replay", int64(s.query), int64(i), int64(s.parent), layerNames[s.layer], s.start+shift, s.end+shift)
	}
	for i := range http {
		s := &http[i]
		line("http", int64(i), 2*int64(i), -1, "client."+kindNames[s.kind], s.sent, s.done)
		if s.kind != kindAdd && s.ok() {
			line("http", int64(i), 2*int64(i)+1, 2*int64(i), "server."+kindNames[s.kind], s.sent, s.sent+time.Duration(s.wallUS)*time.Microsecond)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layers computes the per-layer metrics: the server's own share of client
// time from the HTTP run, cache and WAL counters from /stats, and the
// layer split from an in-process replay of the timed queries at
// GOMAXPROCS=1 through the layers' exported functions, whose answers must
// equal the DB's bit for bit.
func (r *runner) layers() error {
	w := r.w
	put := func(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

	gated := append(append([]sample{}, r.main...), r.probes...)
	selfMS := map[opKind][]float64{}
	for i := range gated {
		s := &gated[i]
		if s.kind != kindAdd && s.ok() {
			selfMS[s.kind] = append(selfMS[s.kind], float64(s.done-s.sent-time.Duration(s.wallUS)*time.Microsecond)/1e6)
		}
	}
	for _, k := range []opKind{kindRange, kindKNN} {
		v, err := percentile(selfMS[k], 0.5)
		if err != nil {
			return fmt.Errorf("server self time of %s: %w", kindNames[k], err)
		}
		put("server."+kindNames[k]+"_self_p50_ms", v, "ms")
	}

	hitRatio := func(a, b serverStats) float64 {
		h, m := b.ResultCache.Hits-a.ResultCache.Hits, b.ResultCache.Misses-a.ResultCache.Misses
		return ratio(float64(h), float64(h+m))
	}
	put("rcache.hit_ratio", hitRatio(r.statsBefore, r.statsTimed), "ratio")
	put("rcache.churn_hit_ratio", hitRatio(r.statsTimed, r.statsAft), "ratio")
	put("rcache.churn_invalidations", float64(r.statsAft.ResultCache.Invalidations-r.statsTimed.ResultCache.Invalidations), "count")
	// The WAL sees only the churn phase's adds.
	var ackMS []float64
	for i := range r.churn {
		if r.churn[i].kind == kindAdd && r.churn[i].ok() {
			ackMS = append(ackMS, r.churn[i].latencyMS())
		}
	}
	b, a := r.statsTimed, r.statsAft
	walWrites := 0.0
	if a.WAL.Records > b.WAL.Records {
		walWrites = float64(len(ackMS))
	}
	put("wal.fsyncs_per_write", ratio(float64(a.WAL.Fsyncs-b.WAL.Fsyncs), walWrites), "count/write")
	put("wal.bytes_per_write", ratio(float64(a.WAL.Bytes-b.WAL.Bytes), walWrites), "B/write")
	ack50, _ := percentile(ackMS, 0.5)
	put("wal.ack_p50_ms", ack50, "ms")
	put("gen.late_p99_ms", r.genLate, "ms")
	put("gen.cpu_s", r.genCPU, "s")

	// The replayed sequence: the timed run's first queries, in order.
	var ops []*op
	for i := range r.main {
		if len(ops) < w.replay && r.main[i].kind != kindAdd {
			ops = append(ops, r.main[i].op)
		}
	}
	dir := filepath.Join(r.work, "replay")
	if err := copyDir(r.pristine, dir); err != nil {
		return err
	}
	store, err := seqdb.Open(dir, seqdb.Options{CacheBytes: 4 << 20})
	if err != nil {
		return err
	}
	defer store.Close()
	idx, err := core.OpenFeatureIndex(filepath.Join(dir, "feature.rtree"), core.IndexOptions{})
	if err != nil {
		return err
	}
	defer idx.Close()
	envs, err := core.LoadEnvStore(filepath.Join(dir, "envelopes.paa"))
	if err != nil {
		return err
	}
	twin, err := r.openTwin("replay-twin")
	if err != nil {
		return err
	}
	defer twin.Close()

	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	tr := newTracer()
	var lc layerCounts
	var twsimTime time.Duration
	var candidates, indexReads, drift, knnQueries int
	var pushes, repushes, envCutoffs int
	poolBefore, cacheBefore := store.Stats(), store.CacheStats()
	for qi, o := range ops {
		t0 := time.Now()
		res, err := r.answer(twin, o)
		twsimTime += time.Since(t0)
		if err != nil {
			return err
		}
		tr.query = int32(qi)
		root := tr.begin(layQuery)
		m := newMirror(tr, store, envs, &lc, o.q, w.band)
		idxBefore := idx.Stats()
		var got []core.Match
		if o.kind == kindKNN {
			got, err = m.nearestK(idx, w.k)
			knnQueries++
			pushes += res.Stats.KNNFrontierPushes
			repushes += res.Stats.KNNRepushes
			envCutoffs += res.Stats.KNNEnvCutoffs
		} else {
			got, err = m.search(idx, w.eps)
		}
		m.close()
		tr.end(root)
		if err != nil {
			return err
		}
		indexReads += int(idx.Stats().Reads - idxBefore.Reads)
		candidates += m.st.Candidates
		if !sameMatches(got, res.Matches) {
			r.fail("replay of %s %d: %d matches differ from the DB's %d", kindNames[o.kind], o.idx, len(got), len(res.Matches))
		}
		if !sameWork(m.st, res.Stats) {
			drift++
		}
	}
	poolAfter, cacheAfter := store.Stats(), store.CacheStats()
	runtime.GOMAXPROCS(prev)

	n := float64(len(ops))
	self := tr.selfTimes()
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	put("twsim.query_ms", float64(twsimTime)/1e6/n, "ms/query")
	put("filter.busy_us", us(self[layFilter])/n, "us/query")
	put("filter.candidates", float64(candidates)/n, "count/query")
	put("filter.index_reads", float64(indexReads)/n, "count/query")
	fetches := float64(lc.evaluated[layFetch])
	put("fetch.busy_us", ratio(us(self[layFetch]), fetches), "us/call")
	put("fetch.calls", fetches/n, "count/query")
	put("fetch.pool_miss_ratio", ratio(float64(poolAfter.Misses-poolBefore.Misses), float64(poolAfter.Reads-poolBefore.Reads)), "ratio")
	ch, cm := cacheAfter.Hits-cacheBefore.Hits, cacheAfter.Misses-cacheBefore.Misses
	put("fetch.seqcache_hit_ratio", ratio(float64(ch), float64(ch+cm)), "ratio")
	for _, l := range []layer{layKim, layPAA, layKeogh, layYi, layImproved} {
		put(layerNames[l]+".busy_us", us(self[l])/n, "us/query")
		put(layerNames[l]+".prune_ratio", ratio(float64(lc.pruned[l]), float64(lc.evaluated[l])), "ratio")
	}
	put("knn.ub_busy_us", us(self[layUB])/n, "us/query")
	for _, l := range []layer{layDPUnbanded, layDPBanded} {
		put(layerNames[l]+".busy_ms", float64(self[l])/1e6/n, "ms/query")
		put(layerNames[l]+".calls", float64(lc.evaluated[l])/n, "count/query")
		put(layerNames[l]+".match_ratio", ratio(float64(lc.dpMatches[l]), float64(lc.evaluated[l])), "ratio")
	}
	kq := float64(knnQueries)
	put("knn.frontier_pushes", ratio(float64(pushes), kq), "count/query")
	put("knn.repushes", ratio(float64(repushes), kq), "count/query")
	put("knn.env_cutoffs", ratio(float64(envCutoffs), kq), "count/query")
	var covered time.Duration
	for l := layFilter; l < numLayers; l++ {
		covered += self[l]
	}
	put("trace.coverage", ratio(float64(covered), float64(twsimTime)), "ratio")
	put("trace.counter_drift", float64(drift)/n, "ratio")
	r.report["replayed_queries"] = len(ops)
	r.report["spans"] = len(tr.spans)

	path := filepath.Join(r.root, ".bench_out", "traces", w.name+".spans.jsonl.gz")
	if err := tr.write(path, r.httpSamples(), r.epoch); err != nil {
		return err
	}
	r.report["spans_file"] = path
	return nil
}

func sameMatches(a []core.Match, b []twsim.Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || math.Float64bits(a[i].Dist) != math.Float64bits(b[i].Dist) {
			return false
		}
	}
	return true
}

// sameWork reports whether the replay did the DB's work: the same
// candidates, prunes per tier and DP calls.
func sameWork(a, b core.QueryStats) bool {
	return a.Candidates == b.Candidates && a.DTWCalls == b.DTWCalls && a.LBKimPruned == b.LBKimPruned &&
		a.LBPAAPruned == b.LBPAAPruned && a.LBKeoghPruned == b.LBKeoghPruned && a.LBYiPruned == b.LBYiPruned &&
		a.LBImprovedPruned == b.LBImprovedPruned && a.CorridorPruned == b.CorridorPruned
}
