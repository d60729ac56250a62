package twsim

import (
	"context"
	"testing"
)

// TestSearchBatchFastFail: once a query errors, the dispatcher must stop
// feeding the remaining queries to the workers. With parallelism 1 and the
// first query failing, not a single valid query may execute — observable as
// zero index reads, since every executed range query touches the index
// buffer pool while the failing query errors before reaching it. The batch
// executor is driven directly: SearchBatchCtx rejects the empty query during
// upfront validation, before the dispatcher ever runs.
func TestSearchBatchFastFail(t *testing.T) {
	db, err := OpenMem(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 32; i++ {
		if _, err := db.Add([]float64{float64(i), float64(i + 1), float64(i + 2)}); err != nil {
			t.Fatal(err)
		}
	}
	queries := make([][]float64, 50)
	queries[0] = nil // empty query: fails before any index access
	for i := 1; i < len(queries); i++ {
		queries[i] = []float64{1, 2, 3}
	}
	before := db.index.Stats().Reads
	if _, err := db.executeBatch(context.Background(), queries, 0.5, 0, 1); err == nil {
		t.Fatal("batch with an invalid query succeeded")
	}
	if delta := db.index.Stats().Reads - before; delta != 0 {
		t.Fatalf("dispatcher kept feeding queries after the error: %d index reads", delta)
	}
}
