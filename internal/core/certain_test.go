package core

import (
	"context"
	"testing"

	"repro/internal/datagraph"
	"repro/internal/ree"
	"repro/internal/rem"
	"repro/internal/rpq"
)

var ctx = context.Background()

// mat opens a fresh materialization of (m, gs).
func mat(m *Mapping, gs *datagraph.Graph) *Materialization {
	return NewMaterialization(MustCompile(m), gs)
}

// selfLoopSource builds x -a-> x with value "vx".
func selfLoopSource(t *testing.T) *datagraph.Graph {
	t.Helper()
	g := datagraph.New()
	g.MustAddNode("x", datagraph.V("vx"))
	g.MustAddEdge("x", "a", "x")
	return g
}

func TestCertainNullNavigational(t *testing.T) {
	gs := sourceGraph(t)
	m := NewMapping(R("knows", "f f"), R("likes", "l"))
	// Navigational query f f from ann reaches bob in every solution.
	q := NavQuery{Q: rpq.MustParse("f f")}
	ans, err := mat(m, gs).CertainNull(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Has("ann", "bob") || ans.Len() != 1 {
		t.Fatalf("certain = %v", ans)
	}
	// f alone ends at a null node: no certain answers.
	ans2, err := mat(m, gs).CertainNull(ctx, NavQuery{Q: rpq.MustParse("f")})
	if err != nil {
		t.Fatal(err)
	}
	if ans2.Len() != 0 {
		t.Fatalf("f should have no null-free answers: %v", ans2)
	}
}

func TestCertainNullDataQuery(t *testing.T) {
	gs := sourceGraph(t)
	m := NewMapping(R("knows", "f f"))
	// (f f)!=: endpoints ann(30), bob(25) differ — certain.
	q := ree.MustParseQuery("(f f)!=")
	ans, err := mat(m, gs).CertainNull(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Has("ann", "bob") {
		t.Fatalf("(f f)!= should be certain: %v", ans)
	}
	// (f f)=: endpoints differ — not certain (and in fact never true).
	ans2, err := mat(m, gs).CertainNull(ctx, ree.MustParseQuery("(f f)="))
	if err != nil {
		t.Fatal(err)
	}
	if ans2.Len() != 0 {
		t.Fatalf("(f f)= should be empty: %v", ans2)
	}
	// f=: would compare a constant with a null — never true under SQL
	// semantics, and indeed not certain (the null can be anything).
	ans3, err := mat(m, gs).CertainNull(ctx, ree.MustParseQuery("f="))
	if err != nil {
		t.Fatal(err)
	}
	if ans3.Len() != 0 {
		t.Fatalf("f= should be empty: %v", ans3)
	}
}

func TestCertainExactAgreesOnSimpleCases(t *testing.T) {
	gs := sourceGraph(t)
	m := NewMapping(R("knows", "f f"))
	for _, expr := range []string{"(f f)!=", "(f f)=", "f="} {
		q := ree.MustParseQuery(expr)
		exact, err := mat(m, gs).CertainExact(ctx, q, DefaultExactOptions())
		if err != nil {
			t.Fatal(err)
		}
		null, err := mat(m, gs).CertainNull(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		// Underapproximation: 2ⁿ ⊆ 2.
		if !null.SubsetOf(exact) {
			t.Errorf("%s: CertainNull ⊄ CertainExact: %v vs %v", expr, null, exact)
		}
	}
}

// The Remark 1 gap: a query whose certain answer depends on a null node
// being *equal to itself*. SQL nulls miss it; the exact semantics and the
// least-informative solution (Theorem 5) both find it.
func TestApproximationGapSelfEquality(t *testing.T) {
	gs := selfLoopSource(t)
	m := NewMapping(R("a", "b b"))
	// Universal solution: x -b-> n -b-> x (one null n).
	// Q = b (b b)= b from x to x: any solution contains
	// x b v b x b v b x whose positions 1 and 3 are the same node v —
	// values equal. Certain under the exact semantics.
	q := ree.MustParseQuery("b (b b)= b")
	exact, err := mat(m, gs).CertainExact(ctx, q, DefaultExactOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !exact.Has("x", "x") {
		t.Fatalf("exact semantics should certify (x,x): %v", exact)
	}
	// Theorem 5: least-informative computes it too (query is REE=).
	li, err := mat(m, gs).CertainLeastInformative(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !li.Has("x", "x") {
		t.Fatalf("least-informative should certify (x,x): %v", li)
	}
	// SQL nulls miss it: n = n is not true under SQL semantics.
	null, err := mat(m, gs).CertainNull(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if null.Has("x", "x") {
		t.Fatal("SQL-null semantics should miss the self-equality answer")
	}
}

func TestCertainLeastInformativeEqualityOnly(t *testing.T) {
	gs := sourceGraph(t)
	m := NewMapping(R("knows", "f f"), R("likes", "l"))
	// REE= query l= : ann likes p1 and bob likes p1; values differ from p1's
	// so l= is never certain.
	li, err := mat(m, gs).CertainLeastInformative(ctx, ree.MustParseQuery("l="))
	if err != nil {
		t.Fatal(err)
	}
	if li.Len() != 0 {
		t.Fatalf("l= should have no certain answers: %v", li)
	}
	// Navigational f f is certain (ann, bob).
	li2, err := mat(m, gs).CertainLeastInformative(ctx, ree.MustParseQuery("f f"))
	if err != nil {
		t.Fatal(err)
	}
	if !li2.Has("ann", "bob") {
		t.Fatalf("f f should be certain: %v", li2)
	}
	// Agreement with the exact oracle on REE= queries (Theorem 5).
	for _, expr := range []string{"l=", "f f", "(f f)=", "f f | l"} {
		q := ree.MustParseQuery(expr)
		if !ree.IsEqualityOnly(q.Expr()) {
			t.Fatalf("%s should be REE=", expr)
		}
		exact, err := mat(m, gs).CertainExact(ctx, q, DefaultExactOptions())
		if err != nil {
			t.Fatal(err)
		}
		liAns, err := mat(m, gs).CertainLeastInformative(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if !exact.Equal(liAns) {
			t.Errorf("%s: Theorem 5 violated: exact %v vs least-informative %v", expr, exact, liAns)
		}
	}
}

func TestCertainWithREMQuery(t *testing.T) {
	gs := sourceGraph(t)
	m := NewMapping(R("knows", "f f"))
	// REM query ↓x.((f f)[x≠]) ≡ (f f)!=.
	q := rem.MustParseQuery("!x.((f f)[x!=])")
	ans, err := mat(m, gs).CertainNull(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Has("ann", "bob") {
		t.Fatalf("REM inequality should be certain: %v", ans)
	}
	exact, err := mat(m, gs).CertainExact(ctx, q, DefaultExactOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Equal(exact) {
		t.Fatalf("REM: null %v vs exact %v", ans, exact)
	}
}

func TestCertainExactBudget(t *testing.T) {
	// A mapping generating many nulls must be refused beyond the budget.
	gs := datagraph.New()
	for i := 0; i < 3; i++ {
		gs.MustAddNode(datagraph.NodeID(string(rune('a'+i))), datagraph.V("v"))
	}
	for i := 0; i < 2; i++ {
		gs.MustAddEdge(datagraph.NodeID(string(rune('a'+i))), "e", datagraph.NodeID(string(rune('a'+i+1))))
	}
	m := NewMapping(R("e", "p q r")) // 2 nulls per source edge = 4 nulls
	if _, err := mat(m, gs).CertainExact(ctx, ree.MustParseQuery("p"), ExactOptions{MaxNulls: 3}); err == nil {
		t.Fatal("budget must be enforced")
	}
	if _, err := mat(m, gs).CertainExact(ctx, ree.MustParseQuery("p q r"), ExactOptions{MaxNulls: 4}); err != nil {
		t.Fatal(err)
	}
}

func TestSpecializationCount(t *testing.T) {
	cases := []struct{ f, k, want int }{
		{0, 0, 1},
		{1, 0, 1}, // one null: one fresh class
		{2, 0, 2}, // Bell(2)
		{3, 0, 5}, // Bell(3)
		{1, 2, 3}, // two source values + one fresh class
		// f=2, k=1: null1 ∈ {s, f1}; null1=s → null2 ∈ {s, f1} (2);
		// null1=f1 → null2 ∈ {s, f1, f2} (3); total 5.
		{2, 1, 5},
	}
	for _, c := range cases {
		if got := SpecializationCount(c.f, c.k); got != c.want {
			t.Errorf("SpecializationCount(%d, %d) = %d, want %d", c.f, c.k, got, c.want)
		}
	}
}

func TestCertainExactEarlyStopAndEmpty(t *testing.T) {
	gs := sourceGraph(t)
	m := NewMapping(R("knows", "f f"))
	// A query that never matches: certain answers empty, early stop path.
	ans, err := mat(m, gs).CertainExact(ctx, ree.MustParseQuery("zz"), DefaultExactOptions())
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 0 {
		t.Fatalf("impossible query should be empty: %v", ans)
	}
}

func TestCertainExactPairAgreesWithFullSearch(t *testing.T) {
	gs := sourceGraph(t)
	m := NewMapping(R("knows", "f f"), R("likes", "l"))
	for _, expr := range []string{"(f f)!=", "(f f)=", "f f", "l", "f= f"} {
		q := ree.MustParseQuery(expr)
		full, err := mat(m, gs).CertainExact(ctx, q, DefaultExactOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range mat(m, gs).DomNodes() {
			for _, b := range mat(m, gs).DomNodes() {
				got, err := mat(m, gs).CertainExactPair(ctx, q, a.ID, b.ID, DefaultExactOptions())
				if err != nil {
					t.Fatal(err)
				}
				if got != full.Has(a.ID, b.ID) {
					t.Errorf("%s (%s,%s): pair %v vs full %v", expr, a.ID, b.ID, got, full.Has(a.ID, b.ID))
				}
			}
		}
	}
	// Non-dom endpoints are never certain.
	got, err := mat(m, gs).CertainExactPair(ctx, ree.MustParseQuery("f f"), "p1", "zz", DefaultExactOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Fatal("missing endpoint cannot be certain")
	}
	// Budget enforcement.
	if _, err := mat(m, gs).CertainExactPair(ctx, ree.MustParseQuery("f f"), "ann", "bob",
		ExactOptions{MaxNulls: -1}); err == nil {
		// MaxNulls -1 means fewer than the single null present... -1 < 1.
		t.Fatal("budget must be enforced")
	}
}

func TestAnswersSetOps(t *testing.T) {
	a := NewAnswers()
	n1 := datagraph.Node{ID: "x", Value: datagraph.V("1")}
	n2 := datagraph.Node{ID: "y", Value: datagraph.V("2")}
	a.Add(Answer{From: n1, To: n2})
	a.Add(Answer{From: n2, To: n1})
	b := NewAnswers()
	b.Add(Answer{From: n1, To: n2})
	if a.Equal(b) || !b.SubsetOf(a) || a.SubsetOf(b) {
		t.Fatal("set relations wrong")
	}
	a.Intersect(b)
	if !a.Equal(b) || a.Len() != 1 {
		t.Fatal("intersection wrong")
	}
	if a.String() == "" || a.Sorted()[0].String() == "" {
		t.Fatal("string rendering empty")
	}
}
