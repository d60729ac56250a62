package workpool

import (
	"errors"
	"sync/atomic"
	"testing"
)

// TestRunVisitsEveryItemOnce: without errors every index runs exactly once,
// at every worker count, and never on more goroutines than allowed.
func TestRunVisitsEveryItemOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		const n = 200
		var hits [n]atomic.Int32
		var running, peak atomic.Int32
		err := Run(n, workers, func(i int) error {
			if r := running.Add(1); r > peak.Load() {
				peak.Store(r)
			}
			hits[i].Add(1)
			running.Add(-1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: item %d ran %d times", workers, i, got)
			}
		}
		if max := int32(workers); max > 0 && peak.Load() > max {
			t.Fatalf("workers=%d: %d items ran at once", workers, peak.Load())
		}
	}
}

// TestRunStopsAtFirstError: a failure is returned and stops dispatch — a
// serial run starts nothing after the failing item, and a parallel run
// stops well short of the whole batch.
func TestRunStopsAtFirstError(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		var started atomic.Int32
		err := Run(1000, workers, func(i int) error {
			started.Add(1)
			if i == 0 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want boom", workers, err)
		}
		if got := started.Load(); got > 1000/2 {
			t.Fatalf("workers=%d: %d of 1000 items started after the first failed", workers, got)
		}
		if workers == 1 && started.Load() != 1 {
			t.Fatalf("serial run started %d items, want 1", started.Load())
		}
	}
	if err := Run(0, 4, func(int) error { return boom }); err != nil {
		t.Fatalf("empty run: %v", err)
	}
}
