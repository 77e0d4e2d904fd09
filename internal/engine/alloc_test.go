package engine

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/core"
	"repro/internal/datagraph"
	"repro/internal/rpq"
)

// frontierGraph is n nodes on one long x-chain — the bulk no query below
// touches — plus, on its first 3·frontier nodes, frontier disjoint a·b
// paths: whatever n is, "a b" has the same frontier and the same answers.
func frontierGraph(n, frontier int) *datagraph.Graph {
	g := datagraph.New()
	id := func(i int) datagraph.NodeID { return datagraph.NodeID(fmt.Sprintf("n%d", i)) }
	for i := 0; i < n; i++ {
		g.MustAddNode(id(i), datagraph.V(fmt.Sprint(i%7)))
	}
	for i := 0; i+1 < n; i++ {
		g.MustAddEdge(id(i), "x", id(i+1))
	}
	for i := 0; i < frontier; i++ {
		g.MustAddEdge(id(3*i), "a", id(3*i+1))
		g.MustAddEdge(id(3*i+1), "b", id(3*i+2))
	}
	g.Freeze()
	return g
}

// evalAllocBytes is the least a warmed EvalGraph call allocates, by
// TotalAlloc delta: the least of several calls, with the collector off,
// because a collection empties the scratch pool and the call after it pays
// for a scratch the steady state does not.
func evalAllocBytes(t *testing.T, g *datagraph.Graph, q core.Query, wantPairs int) uint64 {
	t.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	least := ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < 9; i++ {
		runtime.ReadMemStats(&before)
		res, err := EvalGraph(context.Background(), g, q, datagraph.SQLNulls, Options{Workers: 2})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != wantPairs {
			t.Fatalf("%d pairs, want %d", res.Len(), wantPairs)
		}
		// The first call is the warm-up: it lowers the query and sizes
		// the scratch.
		if d := after.TotalAlloc - before.TotalAlloc; i > 0 && d < least {
			least = d
		}
	}
	return least
}

// TestEvalGraphAllocationFollowsFrontier pins the kernels' memory to the
// frontier they reach: a selective query over a large frozen graph must not
// allocate in proportion to |V|·states per start-node chunk (at 12 000 nodes
// that was ≈ 100 MB per call), and must not allocate twice as much on a
// graph twice the size with the same frontier.
func TestEvalGraphAllocationFollowsFrontier(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a quarter of what is put back, so every fourth chunk allocates a scratch")
	}
	const frontier = 400
	q := core.NavQuery{Q: rpq.MustParse("a b")}
	small := evalAllocBytes(t, frontierGraph(12000, frontier), q, frontier)
	large := evalAllocBytes(t, frontierGraph(24000, frontier), q, frontier)
	t.Logf("EvalGraph allocates %d B at 12 000 nodes, %d B at 24 000", small, large)
	if small >= 256<<10 {
		t.Errorf("EvalGraph over 12 000 nodes allocates %d B per call, want < 256 KB", small)
	}
	if large >= 2*small {
		t.Errorf("doubling |V| with the same frontier took allocation from %d B to %d B", small, large)
	}
}
