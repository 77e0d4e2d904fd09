package core_test

// Property-based cross-validation of the certain-answer algorithms on
// randomized workloads. These are the library-level counterparts of
// experiments E7/E8: every algorithm invariant the paper proves is checked
// on dozens of random (graph, mapping, query) triples.

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/datagraph"
	"repro/internal/ree"
	"repro/internal/workload"
)

var ctx = context.Background()

// mat opens a fresh materialization of (m, gs).
func mat(m *core.Mapping, gs *datagraph.Graph) *core.Materialization {
	return core.NewMaterialization(core.MustCompile(m), gs)
}

func randomInstance(seed int64) (*datagraph.Graph, *core.Mapping) {
	gs := workload.RandomGraph(workload.GraphSpec{
		Nodes: 5, Edges: 7, Labels: []string{"a", "b"}, Values: 3, Seed: seed,
	})
	m := workload.RandomRelationalMapping(workload.MappingSpec{
		SourceLabels: []string{"a", "b"},
		TargetLabels: []string{"p", "q"},
		Rules:        2, MaxWordLen: 2, Seed: seed,
	})
	return gs, m
}

// Property (Section 7): 2ⁿ_M(Q, Gs) ⊆ 2_M(Q, Gs) for every query.
func TestPropertyUnderapproximation(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		gs, m := randomInstance(seed)
		q := ree.New(workload.RandomREEQuery(workload.QuerySpec{
			Labels: []string{"p", "q"}, Depth: 3, AllowNeq: true, Seed: seed,
		}))
		exact, err := mat(m, gs).CertainExact(ctx, q, core.ExactOptions{MaxNulls: 8})
		if err != nil {
			continue // too many nulls for the oracle budget
		}
		nullAns, err := mat(m, gs).CertainNull(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if !nullAns.SubsetOf(exact) {
			t.Fatalf("seed %d: 2ⁿ ⊄ 2 for %s: %v vs %v", seed, q, nullAns, exact)
		}
	}
}

// Property (Theorem 5): least-informative solutions are exact for REE=.
func TestPropertyEqualityOnlyExact(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		gs, m := randomInstance(seed)
		expr := workload.RandomREEQuery(workload.QuerySpec{
			Labels: []string{"p", "q"}, Depth: 3, AllowNeq: false, Seed: seed,
		})
		if !ree.IsEqualityOnly(expr) {
			t.Fatalf("generator violated AllowNeq=false: %s", expr)
		}
		q := ree.New(expr)
		exact, err := mat(m, gs).CertainExact(ctx, q, core.ExactOptions{MaxNulls: 8})
		if err != nil {
			continue
		}
		li, err := mat(m, gs).CertainLeastInformative(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if !li.Equal(exact) {
			t.Fatalf("seed %d: Theorem 5 violated for %s: %v vs %v", seed, q, li, exact)
		}
	}
}

// Property: both solution styles actually are solutions, and the universal
// solution maps homomorphically into the least informative one fixing dom
// (a Lemma 1 instance).
func TestPropertySolutionsAndLemma1(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		gs, m := randomInstance(seed)
		u, err := mat(m, gs).UniversalCtx(ctx)
		if err != nil {
			t.Fatal(err)
		}
		li, err := mat(m, gs).LeastInformativeCtx(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !m.Satisfies(gs, u) {
			t.Fatalf("seed %d: universal solution does not satisfy mapping", seed)
		}
		if !m.Satisfies(gs, li) {
			t.Fatalf("seed %d: least informative solution does not satisfy mapping", seed)
		}
		fixed := map[datagraph.NodeID]datagraph.NodeID{}
		for id := range mat(m, gs).DomIDs() {
			fixed[id] = id
		}
		hom, ok := datagraph.FindHomomorphismNulls(u, li, fixed)
		if !ok {
			t.Fatalf("seed %d: Lemma 1 homomorphism missing", seed)
		}
		if !datagraph.IsHomomorphismNulls(u, li, hom) {
			t.Fatalf("seed %d: invalid homomorphism returned", seed)
		}
	}
}

// Property (Proposition 4 vs oracle): the fixpoint algorithm agrees with
// the exponential oracle on random one-inequality paths-with-tests.
func TestPropertyOneNeqAgreesWithOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("slow randomized cross-check")
	}
	checked := 0
	for seed := int64(0); seed < 60 && checked < 25; seed++ {
		gs, m := randomInstance(seed)
		expr := workload.RandomPathWithTests([]string{"p", "q"}, 2+int(seed%3), 1, seed)
		q := ree.New(expr)
		dom := mat(m, gs).DomNodes()
		if len(dom) == 0 {
			continue
		}
		from := dom[0].ID
		to := dom[len(dom)-1].ID
		exact, err := mat(m, gs).CertainExactPair(ctx, q, from, to, core.ExactOptions{MaxNulls: 8})
		if err != nil {
			continue
		}
		got, err := mat(m, gs).CertainOneInequality(ctx, q, from, to, core.OneNeqOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got != exact {
			t.Fatalf("seed %d: fixpoint %v vs oracle %v for %s (%s -> %s)",
				seed, got, exact, q, from, to)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no instance fit the oracle budget")
	}
}

// Property (Proposition 5 vs oracle): on *relational* mappings, the
// arbitrary-GSM word-choice procedure agrees with the specialization
// oracle for random paths-with-tests.
func TestPropertyProp5AgreesWithOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("slow randomized cross-check")
	}
	checked := 0
	for seed := int64(0); seed < 60 && checked < 20; seed++ {
		gs, m := randomInstance(seed)
		expr := workload.RandomPathWithTests([]string{"p", "q"}, 1+int(seed%3), 2, seed)
		q := ree.New(expr)
		dom := mat(m, gs).DomNodes()
		if len(dom) == 0 {
			continue
		}
		from := dom[0].ID
		to := dom[len(dom)-1].ID
		want, err := mat(m, gs).CertainExactPair(ctx, q, from, to, core.ExactOptions{MaxNulls: 8})
		if err != nil {
			continue
		}
		got, err := mat(m, gs).CertainDataPathArbitrary(ctx, q, from, to,
			core.Prop5Options{MaxChoices: 100000})
		if err != nil {
			continue // choice budget; skip
		}
		if got != want {
			t.Fatalf("seed %d: Prop 5 %v vs oracle %v for %s (%s -> %s)",
				seed, got, want, q, from, to)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no instance fit the budgets")
	}
}

// Property: certain answers are monotone in the query for unions — the
// certain answers of q1 are contained in those of q1|q2 under the null
// semantics... NOT in general (certain answers are not monotone under
// union for intersection-based semantics); instead check the sound
// direction: evaluation monotonicity on a fixed solution.
func TestPropertyEvalMonotoneUnderUnion(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		gs, m := randomInstance(seed)
		u, err := mat(m, gs).UniversalCtx(ctx)
		if err != nil {
			t.Fatal(err)
		}
		q1 := ree.MustParseQuery("p q")
		q12 := ree.MustParseQuery("p q | q=")
		r1 := q1.Eval(u, datagraph.SQLNulls)
		r12 := q12.Eval(u, datagraph.SQLNulls)
		if !r1.SubsetOf(r12) {
			t.Fatalf("seed %d: evaluation not monotone under union", seed)
		}
	}
}
