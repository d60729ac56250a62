package dtw

import "sync"

// PooledRowCap is the DP row capacity the buffer pool hands out by default.
// Sequences up to this length (after the shorter-side swap) run the DP with
// zero per-call allocations in steady state; longer sequences grow the
// pooled buffers on first use and are allocation-free afterwards.
const PooledRowCap = 4096

// rowPair is one reusable pair of DP rows. Pooling the pair (rather than
// two single rows) halves the pool traffic per call.
type rowPair struct {
	prev, cur []float64
}

var rowPool = sync.Pool{
	New: func() any {
		return &rowPair{
			prev: make([]float64, PooledRowCap),
			cur:  make([]float64, PooledRowCap),
		}
	},
}

// acquireRows returns a pooled row pair sized to m columns.
func acquireRows(m int) *rowPair {
	rp := rowPool.Get().(*rowPair)
	if cap(rp.prev) < m {
		rp.prev = make([]float64, m)
		rp.cur = make([]float64, m)
	}
	rp.prev = rp.prev[:m]
	rp.cur = rp.cur[:m]
	return rp
}

func releaseRows(rp *rowPair) { rowPool.Put(rp) }
