package main

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	twsim "repro"
	"repro/internal/seq"
)

// runner holds one benchmark run: its inputs, the serving daemon, what the
// client saw, and what the run reports.
type runner struct {
	w               *workload
	seed            int64
	dur             time.Duration
	trace           bool
	root, bin, work string
	epoch           time.Time
	corpus          []seq.Sequence
	conns           int
	pristine        string // the bulk-loaded directory no daemon touched
	served          string // the copy the daemon serves
	d               *daemon
	cl              *client
	nextAdd         int // adds generated so far (their input index)
	main            []sample
	churn           []sample
	probes          []sample
	// /stats before and after the timed traffic, and at the end.
	statsBefore, statsTimed, statsAft serverStats
	genCPU                            float64 // generator CPU seconds over the timed phases
	genLate                           float64 // ms the generator ran behind at p99
	qps                               float64 // completed queries per second of the throughput phase
	report                            map[string]any
	metrics                           map[string]metric
	problems                          []string // correctness failures; any fails the run
	mu                                sync.Mutex
}

func (r *runner) fail(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *runner) run() (*result, error) {
	if err := os.RemoveAll(r.work); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(r.work, 0o755); err != nil {
		return nil, err
	}
	r.epoch = time.Now()
	r.conns = runtime.NumCPU()
	r.report["host"] = collectHost(r.root)
	r.report["workload"] = r.w.name
	r.report["seed"] = r.seed
	r.report["seconds"] = r.dur.Seconds()
	r.corpus = makeCorpus(r.w, r.seed)

	setupS, err := r.setup()
	if err != nil {
		return nil, err
	}
	defer r.d.stop()
	r.cl = newClient(r.d.base, r.conns, r.epoch)
	defer r.cl.close()

	if err := r.drive(); err != nil {
		return nil, err
	}
	acked := r.readBack()
	if r.statsAft, err = r.serverStats(); err != nil {
		return nil, err
	}
	rss, err := r.d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	srvCPU, _ := r.d.cpuSeconds()
	r.report["server_cpu_s"] = srvCPU
	if err := r.d.stop(); err != nil {
		return nil, err
	}
	spaceAmp, err := r.spaceAmp(acked)
	if err != nil {
		return nil, err
	}
	if err := r.check(acked); err != nil {
		return nil, err
	}

	res := &result{Metrics: r.metrics}
	all := r.httpSamples()
	for i := range all {
		res.Attempted++
		if !all[i].ok() {
			res.Failed++
		}
	}
	res.Attempted += len(acked) // read-backs
	r.report["fail_frac"] = ratio(float64(res.Failed), float64(res.Attempted))
	var why []string
	for i := range all {
		if !all[i].ok() && len(why) < 5 {
			why = append(why, fmt.Sprintf("%s status %d err %v: %.200s", kindNames[all[i].kind], all[i].status, all[i].err, all[i].resp))
		}
	}
	if len(why) > 0 {
		r.report["failures"] = why
	}
	if err := r.endToEnd(setupS, rss, spaceAmp); err != nil {
		return nil, err
	}
	if r.genLate > genLateLimit {
		return nil, fmt.Errorf("run invalid: generator ran %.2f ms late at p99 (limit %.1f ms)", r.genLate, genLateLimit)
	}
	if r.trace {
		r.metrics = map[string]metric{}
		res.Metrics = r.metrics
		if err := r.layers(); err != nil {
			return nil, err
		}
	}
	if len(r.problems) > 0 {
		r.report["problems"] = r.problems
	}
	res.Correct = len(r.problems) == 0
	return res, nil
}

// ---- set-up ----

// bulkLoad writes the corpus through the library, as cmd/datagen does.
func bulkLoad(dir string, corpus []seq.Sequence) error {
	db, err := twsim.Create(dir, twsim.Options{})
	if err != nil {
		return err
	}
	vals := make([][]float64, len(corpus))
	for i, s := range corpus {
		vals[i] = s
	}
	if _, err := db.AddAll(vals); err != nil {
		db.Close()
		return err
	}
	return db.Close()
}

// setup bulk-loads the corpus and starts twsimd on a fresh copy of it, at
// least minSetups times and until setupBudgetS seconds are spent (at most
// maxSetups); the last daemon stays up to serve the run. It returns the
// median set-up time in seconds.
func (r *runner) setup() (float64, error) {
	var times []float64
	spent := 0.0
	for i := 0; i < minSetups || (spent < setupBudgetS && i < maxSetups); i++ {
		load := filepath.Join(r.work, fmt.Sprintf("load-%d", i))
		t0 := time.Now()
		if err := bulkLoad(load, r.corpus); err != nil {
			return 0, fmt.Errorf("bulk load: %w", err)
		}
		loadT := time.Since(t0)
		served := filepath.Join(r.work, fmt.Sprintf("served-%d", i))
		if err := copyDir(load, served); err != nil {
			return 0, err
		}
		t1 := time.Now()
		d, err := startDaemon(r.bin, served, r.w.flags)
		if err != nil {
			return 0, err
		}
		times = append(times, (loadT + time.Since(t1)).Seconds())
		spent += times[i]
		if i+1 < minSetups || (spent < setupBudgetS && i+1 < maxSetups) {
			if err := d.stop(); err != nil {
				return 0, err
			}
			if err := os.RemoveAll(load); err != nil {
				return 0, err
			}
			if err := os.RemoveAll(served); err != nil {
				return 0, err
			}
			continue
		}
		r.d, r.pristine, r.served = d, load, served
	}
	r.report["setup_s_samples"] = times
	return median(times), nil
}

func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}

// spaceAmp is the served directory's bytes over the user data it holds
// (8 bytes per stored value), measured after the daemon closed it.
func (r *runner) spaceAmp(acked []ackedAdd) (float64, error) {
	n, err := dirBytes(r.served)
	if err != nil {
		return 0, err
	}
	var values int64
	for _, s := range r.corpus {
		values += int64(len(s))
	}
	for _, a := range acked {
		values += int64(len(a.values))
	}
	return float64(n) / float64(8*values), nil
}

// ---- inputs ----

func (r *runner) queryOp(kind opKind, stream uint64, i int) op {
	q := makeQuery(r.corpus, r.seed, stream, uint64(i))
	o := op{kind: kind, stream: stream, idx: i, q: q}
	if kind == kindKNN {
		o.body = knnBody(q, r.w.k)
	} else {
		o.body = rangeBody(q, r.w.eps)
	}
	return o
}

func (r *runner) addOp() op {
	v := makeAdd(r.w, r.seed, uint64(r.nextAdd))
	o := op{kind: kindAdd, stream: streamAdds, idx: r.nextAdd, q: v, body: addBody(v)}
	r.nextAdd++
	return o
}

// closedOps is n queries of a stream; with a k-NN share of one half,
// queries alternate between the two kinds.
func (r *runner) closedOps(stream uint64, n int, knnShare float64) []op {
	ops := make([]op, n)
	var wg sync.WaitGroup
	for g := range r.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < n; i += r.conns {
				kind := kindRange
				if knnShare >= 1 || (knnShare > 0 && i%int(1/knnShare) == 1) {
					kind = kindKNN
				}
				ops[i] = r.queryOp(kind, stream, i)
			}
		}()
	}
	wg.Wait()
	return ops
}

// churnOps is the churn phase: range queries drawn Zipf from the pool,
// each operation an add with probability writeShare.
func (r *runner) churnOps() []op {
	w := r.w
	pool := make([]op, w.poolSize)
	for i := range pool {
		pool[i] = r.queryOp(kindRange, streamPool, i)
	}
	rng := rngFor(r.seed, streamChurn, 0)
	zipf := rand.NewZipf(rng, w.zipfS, 1, uint64(w.poolSize-1))
	ops := make([]op, w.churn)
	for i := range ops {
		if rng.Float64() < w.writeShare {
			ops[i] = r.addOp()
		} else {
			ops[i] = pool[zipf.Uint64()]
		}
	}
	return ops
}

// ---- traffic ----

// httpSamples is every request the timed phases and probes sent.
func (r *runner) httpSamples() []sample {
	return append(append(append([]sample{}, r.main...), r.probes...), r.churn...)
}

func genCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// drive sends the warm-up, the timed traffic, the k-NN probe and the churn
// phase.
func (r *runner) drive() error {
	w := r.w
	p99n := minSamples(0.99)
	var err error
	// Warm-up from a disjoint stream; its rate sizes the timed inputs.
	wops := r.closedOps(streamWarm, 5000, w.knnShare)
	t0 := time.Now()
	ws, _ := closedLoop(r.cl, wops, r.conns, warmDur, warmDur, func([numKinds]int) bool { return true })
	rate := float64(len(ws)) / time.Since(t0).Seconds()
	n := int(rate*r.dur.Seconds()*2) + 3*p99n
	ops := r.closedOps(streamTimed, n, w.knnShare)
	if r.statsBefore, err = r.serverStats(); err != nil {
		return err
	}
	need := func(got [numKinds]int) bool {
		return got[kindRange] >= p99n && (w.knnShare == 0 || got[kindKNN] >= p99n)
	}
	cpu0 := genCPUSeconds()
	t1 := time.Now()
	r.main, err = closedLoop(r.cl, ops, r.conns, r.dur, 3*r.dur, need)
	el := time.Since(t1)
	r.genCPU = genCPUSeconds() - cpu0
	if err != nil {
		return err
	}
	r.report["clients"] = r.conns
	r.report["timed_s"] = el.Seconds()
	r.qps = windowedRate(r.main, el)
	// A closed-loop generator is late by the time a client idles
	// between a response and its next request.
	var gaps []float64
	for i := range r.main {
		gaps = append(gaps, float64(r.main[i].gap)/1e6)
	}
	r.genLate, _ = percentile(gaps, 0.99)
	// The k-NN probe and the churn phase follow the timed traffic, so the
	// workload's own mix stays as designed.
	if r.statsTimed, err = r.serverStats(); err != nil {
		return err
	}
	if w.probeKNN > 0 {
		ops := r.closedOps(streamProbe, w.probeKNN, 1)
		if r.probes, err = closedLoop(r.cl, ops, r.conns, r.dur/4, time.Hour, func(got [numKinds]int) bool { return got[kindKNN] >= p99n }); err != nil {
			return err
		}
	}
	if w.churn > 0 {
		ops := r.churnOps()
		if r.churn, err = closedLoop(r.cl, ops, r.conns, 0, time.Hour, nil); err != nil {
			return err
		}
	}
	return nil
}

// ---- server counters ----

type serverStats struct {
	ResultCache struct {
		Hits          int64 `json:"hits"`
		Misses        int64 `json:"misses"`
		Invalidations int64 `json:"invalidations"`
	} `json:"result_cache"`
	WAL struct {
		Records int64 `json:"records"`
		Fsyncs  int64 `json:"fsyncs"`
		Bytes   int64 `json:"bytes"`
	} `json:"wal"`
	DataBytes int64 `json:"data_bytes"`
}

func (r *runner) serverStats() (serverStats, error) {
	var st serverStats
	b, code, err := r.cl.get("/stats")
	if err != nil || code != 200 {
		return st, fmt.Errorf("GET /stats: %d %v", code, err)
	}
	return st, json.Unmarshal(b, &st)
}

// ---- end-to-end metrics ----

func latencies(ss []sample, kind opKind) []float64 {
	var out []float64
	for i := range ss {
		if ss[i].kind == kind && ss[i].ok() {
			out = append(out, ss[i].latencyMS())
		}
	}
	return out
}

// windows is the number of consecutive slices a timed phase is cut into;
// its figures are the medians of the slices' figures, so a stall that
// covers one slice does not move them.
const windows = 5

// windowedPercentile is the median over windows consecutive, equal slices
// of xs (in send order) of each slice's p-quantile.
func windowedPercentile(xs []float64, p float64) (float64, error) {
	var per []float64
	for i := range windows {
		v, err := percentile(xs[i*len(xs)/windows:(i+1)*len(xs)/windows], p)
		if err != nil {
			return 0, fmt.Errorf("window %d of %d: %w", i+1, windows, err)
		}
		per = append(per, v)
	}
	return median(per), nil
}

// windowedRate is the median over windows equal spans of the phase of the
// requests completed per second in each.
func windowedRate(ss []sample, el time.Duration) float64 {
	if len(ss) == 0 {
		return 0
	}
	start := ss[0].due
	span := el / windows
	var n [windows]int
	for i := range ss {
		if w := int((ss[i].done - start) / span); w >= 0 && w < windows && ss[i].ok() {
			n[w]++
		}
	}
	var rates []float64
	for _, c := range n {
		rates = append(rates, float64(c)/span.Seconds())
	}
	return median(rates)
}

func (r *runner) endToEnd(setupS, rss, spaceAmp float64) error {
	counts := map[string]int{}
	pct := func(name string, xs []float64, p float64) error {
		v, err := windowedPercentile(xs, p)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		r.metrics[name] = metric{v, "ms"}
		counts[name] = len(xs)
		return nil
	}
	pick := func(kind opKind) []float64 {
		if xs := latencies(r.main, kind); len(xs) > 0 {
			return xs
		}
		return latencies(r.probes, kind)
	}
	rangeLat, knnLat := pick(kindRange), pick(kindKNN)
	for _, e := range []error{pct("range_p50_ms", rangeLat, 0.50), pct("knn_p50_ms", knnLat, 0.50)} {
		if e != nil {
			return e
		}
	}
	// Write latency exists only in the churn phase; it is printed, not
	// gated (see README.md).
	if writeLat := latencies(r.churn, kindAdd); len(writeLat) > 0 {
		w50, _ := percentile(writeLat, 0.50)
		w90, _ := percentile(writeLat, 0.90)
		r.report["write_ms"] = map[string]any{"p50": w50, "p90": w90, "samples": len(writeLat)}
	}
	// The tails are printed, not gated: on a shared 2-CPU VM their spread
	// over ten seeds reached 0.55 (p90) and 0.54 (p99) of the median.
	tails := map[string]float64{}
	for name, xs := range map[string][]float64{"range": rangeLat, "knn": knnLat} {
		for _, p := range []float64{0.90, 0.99} {
			if v, err := percentile(xs, p); err == nil {
				tails[fmt.Sprintf("%s_p%g_ms", name, 100*p)] = v
			}
		}
	}
	r.report["tails"] = tails
	r.report["samples"] = counts
	r.metrics["setup_s"] = metric{setupS, "s"}
	r.metrics["server_rss_mb"] = metric{rss, "MiB"}
	r.metrics["space_amp"] = metric{spaceAmp, "ratio"}
	r.metrics["query_qps"] = metric{r.qps, "1/s"}
	r.report["gen_cpu_s"] = r.genCPU
	r.report["gen_late_p99_ms"] = r.genLate
	return nil
}
