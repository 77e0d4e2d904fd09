package engine

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/datagraph"
	"repro/internal/ree"
	"repro/internal/rem"
	"repro/internal/rpq"
	"repro/internal/workload"
)

// testMaterialization opens a fresh materialization of the test mapping
// over gs.
func testMaterialization(gs *datagraph.Graph) *core.Materialization {
	return core.NewMaterialization(core.MustCompile(core.NewMapping(core.R("a", "p q"), core.R("b", "r"))), gs)
}

func testGraph(seed int64) *datagraph.Graph {
	return workload.RandomGraph(workload.GraphSpec{
		Nodes: 60, Edges: 180, Labels: []string{"a", "b"}, Values: 10, Seed: seed,
	})
}

func testQueries(t *testing.T) []core.Query {
	t.Helper()
	nav, err := rpq.Parse("p q*")
	if err != nil {
		t.Fatal(err)
	}
	return []core.Query{
		ree.MustParseQuery("(p q)="),
		ree.MustParseQuery("(p q)!= | r"),
		rem.MustParseQuery("!x.(p (q[x=])?) q*"),
		core.NavQuery{Q: nav},
	}
}

// TestEvalMatchesSequential checks that the parallel engine computes
// exactly the certain answers of the sequential Theorem 4 algorithm, for
// every query language and several worker counts.
func TestEvalMatchesSequential(t *testing.T) {
	ctx := context.Background()
	queries := testQueries(t)
	for seed := int64(1); seed <= 5; seed++ {
		mat := testMaterialization(testGraph(seed))
		var want []*core.Answers
		for _, q := range queries {
			w, err := mat.CertainNull(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, w)
		}
		u, err := mat.UniversalCtx(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			got, err := EvalSolution(ctx, u, Options{Workers: workers}, queries...)
			if err != nil {
				t.Fatal(err)
			}
			for i := range queries {
				if !got[i].Equal(want[i]) {
					t.Fatalf("seed %d, workers %d, query %d: engine answers differ\n got: %v\nwant: %v",
						seed, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// TestEvalGraphMatchesEval checks the parallel whole-graph evaluator
// against the sequential q.Eval for each query kind.
func TestEvalGraphMatchesEval(t *testing.T) {
	g := testGraph(11)
	for _, q := range testQueries(t) {
		want := q.Eval(g, datagraph.MarkedNulls)
		got, err := EvalGraph(context.Background(), g, q, datagraph.MarkedNulls, Options{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("EvalGraph differs from Eval: got %d pairs, want %d", got.Len(), want.Len())
		}
	}
}

// TestEvalConcurrentCallers runs many EvalSolution calls concurrently over
// one shared solution and query set — the scenario the race detector must
// pass (compiled queries and graphs are shared read-only).
func TestEvalConcurrentCallers(t *testing.T) {
	u, err := testMaterialization(testGraph(3)).UniversalCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	queries := testQueries(t)
	want, err := EvalSolution(context.Background(), u, Options{}, queries...)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := EvalSolution(context.Background(), u, Options{}, queries...)
			if err != nil {
				errs <- err
				return
			}
			for i := range queries {
				if !got[i].Equal(want[i]) {
					t.Errorf("concurrent Eval: query %d answers differ", i)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestEvalCancellation checks that a cancelled context aborts both engine
// entry points with an error rather than returning empty answers.
func TestEvalCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := testGraph(1)
	q := testQueries(t)[0]
	if _, err := EvalSolution(ctx, g, Options{}, q); err == nil {
		t.Fatal("expected a context error from a cancelled EvalSolution")
	}
	if _, err := EvalGraph(ctx, g, q, datagraph.MarkedNulls, Options{}); err == nil {
		t.Fatal("expected a context error from a cancelled EvalGraph")
	}
}

// TestCertainVariants checks the engine over both solutions, filtered as
// the Theorem 4 and Theorem 5 algorithms filter, against the sequential
// materialization methods.
func TestCertainVariants(t *testing.T) {
	ctx := context.Background()
	mat := testMaterialization(testGraph(9))
	q := ree.MustParseQuery("(p q)=")

	seqNull, err := mat.CertainNull(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	u, err := mat.UniversalCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	res, err := EvalGraph(ctx, u, q, datagraph.SQLNulls, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !core.FilterNullAnswers(u, res).Equal(seqNull) {
		t.Fatal("engine over the universal solution differs from Materialization.CertainNull")
	}

	seqLI, err := mat.CertainLeastInformative(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	li, err := mat.LeastInformativeCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	res, err = EvalGraph(ctx, li, q, datagraph.MarkedNulls, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !core.FilterDomAnswers(li, mat.DomIDs(), res).Equal(seqLI) {
		t.Fatal("engine over the least informative solution differs from Materialization.CertainLeastInformative")
	}
}

// TestFrontierPruning checks that start-node pruning keeps answers intact
// on a graph where most nodes cannot start a match.
func TestFrontierPruning(t *testing.T) {
	g := datagraph.New()
	// A small p-chain plus many isolated b-edges that can never start (p p).
	for i := 0; i < 40; i++ {
		g.MustAddNode(datagraph.NodeID(fmt.Sprintf("n%02d", i)), datagraph.V("d"))
	}
	nodes := g.Nodes()
	for i := 0; i+1 < 10; i++ {
		g.MustAddEdge(nodes[i].ID, "p", nodes[i+1].ID)
	}
	for i := 10; i+1 < 40; i += 2 {
		g.MustAddEdge(nodes[i].ID, "b", nodes[i+1].ID)
	}
	q := ree.MustParseQuery("p p")
	want := q.Eval(g, datagraph.MarkedNulls)
	got, err := EvalGraph(context.Background(), g, q, datagraph.MarkedNulls, Options{Workers: 3, ChunkSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("pruned evaluation differs: got %d pairs, want %d", got.Len(), want.Len())
	}
}
