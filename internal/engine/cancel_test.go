package engine_test

// Cancellation-latency regression: a canceled EvalGraph must release its
// workers within one frontier chunk of kernel work, not run the query to
// completion. Workers poll ctx before every chunk, so the bound below fails
// if that polling is lost. The fixture is sized so a full evaluation takes
// a few hundred milliseconds on a 2-vCPU machine, well above the guard.

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagraph"
	"repro/internal/engine"
	"repro/internal/rpq"
	"repro/internal/workload"
)

func TestEvalGraphCancelReleasesWithinChunk(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive; skipped in -short")
	}
	g := workload.RandomGraph(workload.GraphSpec{
		Nodes: 1500, Edges: 7500, Labels: []string{"p", "q", "r"}, Values: 20, Seed: 42,
	})
	q := core.NavQuery{Q: rpq.MustParse("(p|q|r)*")}

	// Baseline: how long an uncanceled evaluation takes on this machine.
	start := time.Now()
	if _, err := engine.EvalGraph(context.Background(), g, q, datagraph.SQLNulls, engine.Options{}); err != nil {
		t.Fatal(err)
	}
	baseline := time.Since(start)
	if baseline < 50*time.Millisecond {
		t.Skipf("baseline %v too fast to measure release latency", baseline)
	}

	// Cancel early in the run; the evaluation must return well before the
	// remaining chunks would have completed.
	delay := baseline / 20
	ctx, cancel := context.WithTimeout(context.Background(), delay)
	defer cancel()
	start = time.Now()
	_, err := engine.EvalGraph(ctx, g, q, datagraph.SQLNulls, engine.Options{})
	elapsed := time.Since(start)
	if !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("canceled evaluation returned err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("wrapped error lost the context cause: %v", err)
	}
	// Generous bound: release within half the full-eval time. Without
	// per-chunk checks the workers drain every chunk and elapsed approaches
	// baseline.
	if limit := baseline / 2; elapsed > limit {
		t.Fatalf("canceled evaluation held workers for %v (baseline %v, limit %v)", elapsed, baseline, limit)
	}
	t.Logf("baseline %v, canceled at %v, released after %v", baseline, delay, elapsed)
}
