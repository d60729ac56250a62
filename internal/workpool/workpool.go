// Package workpool runs indexed work items on a bounded set of goroutines
// and stops at the first failure — the shape of every fan-out in the query
// engines: the shards of one query, and the queries of one batch.
package workpool

import (
	"sync"
	"sync/atomic"
)

// Run calls fn(i) for every i in [0, n) on at most workers goroutines and
// returns the first error. Items are claimed in index order; once a call
// fails no further item is started, so a failing batch aborts promptly
// (calls already running finish). workers ≤ 1 runs serially on the
// caller's goroutine.
func Run(n, workers int, fn func(i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg       sync.WaitGroup
		next     atomic.Int64
		failed   atomic.Bool
		once     sync.Once
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					once.Do(func() {
						firstErr = err
						failed.Store(true)
					})
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}
