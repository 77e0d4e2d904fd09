package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/datagraph"
	"repro/internal/engine"
	"repro/internal/workload"
)

// E15SessionAmortization measures the serving-API scenario behind the
// session redesign: a stream of distinct queries against one fixed
// (mapping, source graph) pair. A fresh materialization per query re-derives
// the universal solution — dom computation, path materialisation, snapshot
// interning — every time; a session materialises it once and evaluates the
// whole stream against the shared memoized artifacts. The gap is the
// amortized cost of solution construction, which dominates for selective
// queries.
//
// The "session" column runs the exact machinery sessions delegate to
// (core.Materialization + the worker-pool engine over the memoized
// solution); the repro.Session facade is a thin veneer over it, kept out of
// this package only to avoid a test-time import cycle.
func E15SessionAmortization(quick bool) (Table, error) {
	t := Table{
		ID:     "E15",
		Title:  "session API: memoized solutions across a query stream",
		Claim:  "serving scenario: N queries on one (M, Gs) pay for one solution, not N",
		Header: []string{"graph", "queries", "per-call", "session", "speedup"},
	}

	type scale struct {
		nodes, edges, queries int
	}
	sizes := []scale{
		{nodes: 400, edges: 1200, queries: 25},
		{nodes: 2000, edges: 6000, queries: 50},
	}
	if quick {
		sizes = []scale{{nodes: 200, edges: 600, queries: 10}}
	}

	ctx := context.Background()
	for _, sc := range sizes {
		// The serving shape: bulk relations a and b dominate the exchange
		// (and hence solution construction); the stream asks selective
		// path-with-tests queries against the small hot relation c.
		gs := workload.RandomGraph(workload.GraphSpec{
			Nodes: sc.nodes, Edges: sc.edges,
			Labels:       []string{"a", "b", "c"},
			LabelWeights: []int{30, 30, 1},
			Values:       sc.nodes / 5, Seed: 15,
		})
		m := core.NewMapping(core.R("a", "p q"), core.R("b", "r q"), core.R("c", "s t"))
		queries := workload.QueryStream(workload.QueryStreamSpec{
			Labels: []string{"s", "t"}, N: sc.queries,
			Shape: workload.ShapePaths, Depth: 2, AllowNeq: true, Seed: 15,
		})

		cm, err := core.Compile(m)
		if err != nil {
			return t, err
		}

		// Per-call path: a fresh materialization per query.
		perCallStart := time.Now()
		perCallAns := make([]*core.Answers, len(queries))
		for i, q := range queries {
			ans, err := core.NewMaterialization(cm, gs).CertainNull(ctx, q)
			if err != nil {
				return t, err
			}
			perCallAns[i] = ans
		}
		perCall := time.Since(perCallStart)

		// Session path: one materialization for the whole stream.
		sessionStart := time.Now()
		mat := core.NewMaterialization(cm, gs)
		for i, q := range queries {
			u, err := mat.UniversalCtx(ctx)
			if err != nil {
				return t, err
			}
			res, err := engine.EvalGraph(ctx, u, q, datagraph.SQLNulls, engine.Options{ChunkSize: 256})
			if err != nil {
				return t, err
			}
			ans := core.FilterNullAnswers(u, res)
			if !ans.Equal(perCallAns[i]) {
				return t, fmt.Errorf("E15: session answers diverged from per-call on query %d", i)
			}
		}
		session := time.Since(sessionStart)

		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("V=%d E=%d", sc.nodes, sc.edges),
			fmt.Sprintf("%d", sc.queries),
			perCall.Round(time.Microsecond).String(),
			session.Round(time.Microsecond).String(),
			fmt.Sprintf("%.1fx", ratio(perCall, session)),
		})
	}
	t.Notes = append(t.Notes,
		"per-call rebuilds the universal solution per query (a fresh materialization each);",
		"session materialises it once (core.Materialization behind repro.Session) and",
		"evaluates the stream on the worker-pool engine over the shared snapshot.")
	return t, nil
}
