package core_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagraph"
	"repro/internal/workload"
)

// referenceChase is the tuple-at-a-time chase of Section 7 that the
// set-at-a-time one replaced, kept as its oracle: dom(M, Gs) node by node,
// then one path per (rule, sorted pair) through AddNode/AddEdge, with ids
// and fresh values printed from one counter.
func referenceChase(m *core.Mapping, gs *datagraph.Graph, freshValues bool) (*datagraph.Graph, error) {
	var ids, vals []string
	for _, n := range gs.Nodes() {
		ids = append(ids, string(n.ID))
	}
	for _, v := range gs.Values() {
		vals = append(vals, v.Raw())
	}
	idPrefix, valPrefix := referencePrefix("_n", ids), referencePrefix("_fresh", vals)
	gt := datagraph.New()
	for _, n := range mat(m, gs).DomNodes() {
		gt.MustAddNode(n.ID, n.Value)
	}
	fresh := 0
	for _, r := range m.Rules {
		word, _ := r.Target.AsWord()
		for _, p := range r.Source.Eval(gs).Sorted() {
			from, to := gs.Node(p.From).ID, gs.Node(p.To).ID
			if len(word) == 0 {
				if from != to {
					return nil, fmt.Errorf("core: rule %s requires %s = %s via ε: %w", r, from, to, core.ErrNoSolution)
				}
				continue
			}
			prev := from
			for _, a := range word[:len(word)-1] {
				fresh++
				id, v := datagraph.NodeID(fmt.Sprintf("%s%d", idPrefix, fresh)), datagraph.Null()
				if freshValues {
					v = datagraph.V(fmt.Sprintf("%s%d", valPrefix, fresh))
				}
				gt.MustAddNode(id, v)
				gt.MustAddEdge(prev, a, id)
				prev = id
			}
			gt.MustAddEdge(prev, word[len(word)-1], to)
		}
	}
	return gt, nil
}

// referencePrefix extends base with underscores until no taken string
// starts with it.
func referencePrefix(base string, taken []string) string {
	for prefix := base; ; prefix += "_" {
		if !slices.ContainsFunc(taken, func(s string) bool { return strings.HasPrefix(s, prefix) }) {
			return prefix
		}
	}
}

// collidingGraph is a random source graph whose ids start with "_n" and
// whose values start with "_fresh", followed by runs of underscores, so the
// chase must lengthen both prefixes; some values are null.
func collidingGraph(seed int64) *datagraph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := datagraph.New()
	const nodes = 24
	for i := 0; i < nodes; i++ {
		v := datagraph.V(fmt.Sprintf("_fresh%s%d", strings.Repeat("_", rng.Intn(3)), i))
		if i%7 == 0 {
			v = datagraph.Null()
		}
		g.MustAddNode(datagraph.NodeID(fmt.Sprintf("_n%s%d", strings.Repeat("_", rng.Intn(4)), i)), v)
	}
	for e := 0; e < 3*nodes; e++ {
		g.MustAddEdge(g.Node(rng.Intn(nodes)).ID, []string{"a", "b", "c"}[rng.Intn(3)], g.Node(rng.Intn(nodes)).ID)
	}
	return g
}

// TestChaseMatchesTupleAtATime pins the set-at-a-time chase to the
// tuple-at-a-time reference in both styles: same nodes in the same order,
// same ids and values, same edges in the same per-label order, same labels
// in the same first-appearance order, and the same error text when an ε
// rule has no solution.
func TestChaseMatchesTupleAtATime(t *testing.T) {
	mappings := []*core.Mapping{
		// Words of length 1 to 4.
		core.NewMapping(core.R("a", "p"), core.R("b", "p q"), core.R("c", "p q r"), core.R("a b", "s p q r")),
		// Two one-letter rules on one target label over overlapping pairs:
		// the second must not repeat the first's edges.
		core.NewMapping(core.R("a", "p"), core.R("a|b", "p"), core.R("b", "q p"), core.R("c", "p")),
		// A satisfiable ε rule beside ordinary ones.
		core.NewMapping(core.R("a", "p q"), core.R("()", "()"), core.R("b c", "q")),
		// A failing ε rule after a rule that already added paths.
		core.NewMapping(core.R("b", "p q"), core.R("a", "()")),
	}
	var graphs []*datagraph.Graph
	for seed := int64(1); seed <= 6; seed++ {
		graphs = append(graphs, workload.RandomGraph(workload.GraphSpec{
			Nodes: 40, Edges: 90, Labels: []string{"a", "b", "c"}, Values: 8, Seed: seed,
		}), collidingGraph(seed))
	}
	for gi, gs := range graphs {
		for mi, m := range mappings {
			for _, fresh := range []bool{false, true} {
				name := fmt.Sprintf("graph %d, mapping %d, fresh values %v", gi, mi, fresh)
				want, wantErr := referenceChase(m, gs, fresh)
				mt := mat(m, gs)
				build := mt.UniversalCtx
				if fresh {
					build = mt.LeastInformativeCtx
				}
				got, err := build(ctx)
				if wantErr != nil || err != nil {
					if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
						t.Fatalf("%s: error %v, want %v", name, err, wantErr)
					}
					continue
				}
				sameGraph(t, name, got, want)
			}
		}
	}
}

// sameGraph fails unless got and want render identically, list every
// label's edges in the same edge-log order, and intern labels identically.
func sameGraph(t *testing.T, name string, got, want *datagraph.Graph) {
	t.Helper()
	if got.String() != want.String() {
		t.Fatalf("%s: solution differs from the tuple-at-a-time chase:\ngot:\n%s\nwant:\n%s", name, got, want)
	}
	gs, ws := got.Freeze(), want.Freeze()
	if gs.NumLabels() != ws.NumLabels() {
		t.Fatalf("%s: %d labels, want %d", name, gs.NumLabels(), ws.NumLabels())
	}
	for l := 0; l < ws.NumLabels(); l++ {
		label := ws.LabelName(datagraph.Label(l))
		if gl := gs.LabelName(datagraph.Label(l)); gl != label {
			t.Fatalf("%s: label %d is %q, want %q", name, l, gl, label)
		}
		if !slices.Equal(labelEdges(gs, datagraph.Label(l)), labelEdges(ws, datagraph.Label(l))) {
			t.Fatalf("%s: %q edges in a different order", name, label)
		}
	}
}

// labelEdges lists the edges labeled l in edge-log order.
func labelEdges(s *datagraph.Snapshot, l datagraph.Label) []datagraph.Pair {
	var out []datagraph.Pair
	s.EachLabelEdge(l, func(from, to int32) { out = append(out, datagraph.Pair{From: int(from), To: int(to)}) })
	return out
}

// TestChaseCancelsMidRule: a one-rule chase over 200 000+ pairs must give
// up within a fraction of its run time, not at the end of its only rule,
// and must not memoize the failure.
func TestChaseCancelsMidRule(t *testing.T) {
	// a+ over a 640-node a-chain: 640·639/2 = 204 480 pairs.
	const chain = 640
	gs := datagraph.New()
	for i := 0; i < chain; i++ {
		gs.MustAddNode(datagraph.NodeID(fmt.Sprintf("v%d", i)), datagraph.V("d"))
		if i > 0 {
			gs.MustAddEdge(gs.Node(i-1).ID, "a", gs.Node(i).ID)
		}
	}
	cm := core.MustCompile(core.NewMapping(core.R("a a*", "p q")))
	warmed := func() *core.Materialization {
		mat := core.NewMaterialization(cm, gs)
		if n := mat.SourcePairs()[0].Len(); n < 200000 {
			t.Fatalf("source query yields %d pairs, want ≥ 200 000", n)
		}
		return mat
	}

	mat := warmed()
	start := time.Now()
	if _, err := mat.UniversalCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	baseline := time.Since(start)
	t.Logf("uncanceled chase: %v", baseline)

	mat = warmed()
	ctx, cancel := context.WithTimeout(context.Background(), baseline/20)
	defer cancel()
	start = time.Now()
	_, err := mat.UniversalCtx(ctx)
	took := time.Since(start)
	if !errors.Is(err, core.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("canceled chase returned %v, want ErrCanceled wrapping DeadlineExceeded", err)
	}
	if took > baseline/2 {
		t.Errorf("canceled chase returned after %v, want within %v (half the uncanceled run)", took, baseline/2)
	}
	if _, err := mat.UniversalCtx(context.Background()); err != nil {
		t.Fatalf("chase after a canceled one: %v", err)
	}
}

// TestUniversalAllocations pins the chase's allocation count on the
// canonical serving pair: sized arrays and one backing string per name
// kind, not a few allocations per fresh node (27 218 tuple-at-a-time).
func TestUniversalAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector are not the production ones")
	}
	sc := workload.Serving(workload.ServingSpec{Nodes: 3000, Edges: 9000, Queries: 50, Seed: 16})
	cm := core.MustCompile(sc.Mapping)
	core.NewMaterialization(cm, sc.Graph).SourcePairs() // freeze the source once, as a registered graph is
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := core.NewMaterialization(cm, sc.Graph).UniversalCtx(ctx); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("fresh materialization's Universal: %.0f allocs", allocs)
	if allocs > 400 {
		t.Errorf("Universal allocates %.0f times, want ≤ 400", allocs)
	}
}
