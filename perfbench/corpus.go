package main

import (
	"encoding/json"
	"math/rand"

	"repro/internal/seq"
	"repro/internal/synth"
)

// Input streams. Every generated input is a pure function of (seed, stream,
// index), so the timed run, the traced run and the correctness checks see
// the same queries without sharing state, and warm-up queries (their own
// stream) never repeat a timed one.
const (
	streamCorpus uint64 = iota + 1
	streamTimed
	streamWarm
	streamPool
	streamAdds
	streamChurn
	streamProbe
	streamBrute
)

// splitmix is SplitMix64 as a math/rand source: cheap to create per input,
// which lets any goroutine derive input i without a shared generator.
type splitmix uint64

func (s *splitmix) Uint64() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix) Int63() int64 { return int64(s.Uint64() >> 1) }
func (s *splitmix) Seed(int64)   {}

func rngFor(seed int64, stream, i uint64) *rand.Rand {
	src := splitmix(uint64(seed)*0x100000001b3 ^ stream<<48 ^ i)
	src.Uint64()
	return rand.New(&src)
}

// makeCorpus builds the workload's stored sequences: the paper's random
// walks, of one length or uniform in [minLen, maxLen].
func makeCorpus(w *workload, seed int64) []seq.Sequence {
	return synth.RandomWalkSetVaryLen(rngFor(seed, streamCorpus, 0), w.count, w.minLen, w.maxLen)
}

// makeQuery is query i of a stream: a stored walk perturbed element-wise by
// up to half its standard deviation (the paper's query generator).
func makeQuery(corpus []seq.Sequence, seed int64, stream, i uint64) seq.Sequence {
	return synth.Query(rngFor(seed, stream, i), corpus)
}

// makeAdd is the i-th sequence a workload writes: a fresh walk of the
// corpus length.
func makeAdd(w *workload, seed int64, i uint64) seq.Sequence {
	return synth.RandomWalk(rngFor(seed, streamAdds, i), w.minLen)
}

func rangeBody(q []float64, eps float64) []byte {
	b, _ := json.Marshal(struct {
		Query   []float64 `json:"query"`
		Epsilon float64   `json:"epsilon"`
	}{q, eps})
	return b
}

func knnBody(q []float64, k int) []byte {
	b, _ := json.Marshal(struct {
		Query []float64 `json:"query"`
		K     int       `json:"k"`
	}{q, k})
	return b
}

func addBody(v []float64) []byte {
	b, _ := json.Marshal(struct {
		Values []float64 `json:"values"`
	}{v})
	return b
}
