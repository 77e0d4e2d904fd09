package crpq

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/datagraph"
)

// triangleGraph: ann knows bob knows carl; ann,carl share age 30; everyone
// likes post p.
func triangleGraph(t *testing.T) *datagraph.Graph {
	t.Helper()
	g := datagraph.New()
	g.MustAddNode("ann", datagraph.V("30"))
	g.MustAddNode("bob", datagraph.V("25"))
	g.MustAddNode("carl", datagraph.V("30"))
	g.MustAddNode("p", datagraph.V("graphs"))
	g.MustAddEdge("ann", "knows", "bob")
	g.MustAddEdge("bob", "knows", "carl")
	g.MustAddEdge("ann", "likes", "p")
	g.MustAddEdge("carl", "likes", "p")
	return g
}

func TestParseAndString(t *testing.T) {
	q := MustParse("ans(x, y) :- x -[knows]-> z, z -[knows]-> y")
	if len(q.Head) != 2 || len(q.Atoms) != 2 {
		t.Fatalf("parsed %v", q)
	}
	// Round trip through String.
	q2 := MustParse(q.String())
	if q2.String() != q.String() {
		t.Fatalf("round trip: %q vs %q", q.String(), q2.String())
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"ans(x, y)",                   // no :-
		"ans x :- x -[a]-> y",         // bad head
		"ans(x) :- x -[a] y",          // bad atom arrow
		"ans(x) :- ",                  // no atoms
		"ans(q) :- x -[a]-> y",        // head var unused
		"ans(x) :- x -[ (( ]-> y",     // bad REE
		"ans(x) :- x -[rem: !x]-> y",  // bad REM
		"ans(x) :- x -[rpq: (( ]-> y", // bad RPQ
		"ans() :- x -[a]-> y",         // empty head list... parses vars
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestEvalJoin(t *testing.T) {
	g := triangleGraph(t)
	// Two-hop friends who both like the same post.
	q := MustParse("ans(x, y) :- x -[knows]-> z, z -[knows]-> y, x -[likes]-> w, y -[likes]-> w")
	res, err := q.Eval(g, datagraph.MarkedNulls)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || !res.Has("ann", "carl") {
		t.Fatalf("answers = %v", res.Sorted())
	}
}

func TestEvalDataAtom(t *testing.T) {
	g := triangleGraph(t)
	// Same-age two-hop pairs: (knows knows)= as a data atom.
	q := MustParse("ans(x, y) :- x -[(knows knows)=]-> y")
	res, err := q.Eval(g, datagraph.MarkedNulls)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || !res.Has("ann", "carl") {
		t.Fatalf("answers = %v", res.Sorted())
	}
	// REM atom.
	q2 := MustParse("ans(x, y) :- x -[rem: !v.((knows knows)[v=])]-> y")
	res2, err := q2.Eval(g, datagraph.MarkedNulls)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Equal(res) {
		t.Fatalf("REM atom disagrees: %v", res2.Sorted())
	}
	// Navigational atom.
	q3 := MustParse("ans(x) :- x -[rpq: knows*]-> y, y -[likes]-> p")
	res3, err := q3.Eval(g, datagraph.MarkedNulls)
	if err != nil {
		t.Fatal(err)
	}
	// Everyone reaching a liker: ann (self), bob (carl), carl (self), and
	// ann->bob->carl. Projected heads: ann, bob, carl.
	if res3.Len() != 3 {
		t.Fatalf("answers = %v", res3.Sorted())
	}
}

func TestSelfJoinVariable(t *testing.T) {
	g := datagraph.New()
	g.MustAddNode("a", datagraph.V("1"))
	g.MustAddNode("b", datagraph.V("2"))
	g.MustAddEdge("a", "loop", "a")
	g.MustAddEdge("a", "loop", "b")
	q := MustParse("ans(x) :- x -[loop]-> x")
	res, err := q.Eval(g, datagraph.MarkedNulls)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || !res.Has("a") {
		t.Fatalf("self-loop answers = %v", res.Sorted())
	}
}

func TestDisconnectedConjuncts(t *testing.T) {
	g := triangleGraph(t)
	// Cross product of knowers and likers, projected to the likers.
	q := MustParse("ans(u) :- x -[knows]-> y, u -[likes]-> w")
	res, err := q.Eval(g, datagraph.MarkedNulls)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 || !res.Has("ann") || !res.Has("carl") {
		t.Fatalf("answers = %v", res.Sorted())
	}
}

func TestCertainConjunctive(t *testing.T) {
	gs := triangleGraph(t)
	m := core.NewMapping(core.R("knows", "f f"), core.R("likes", "l"))
	u, err := core.NewMaterialization(core.MustCompile(m), gs).UniversalCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Certain: two-hop-squared pairs that both like a shared post.
	q := MustParse("ans(x, y) :- x -[f f]-> y, x -[l]-> w, y -[l]-> w")
	// In every solution ann -f·f-> bob; but bob likes nothing, so only
	// pairs with shared likes survive... ann/carl are not f·f-connected
	// (they are f·f·f·f). Expect empty.
	res, err := Certain(u, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Fatalf("answers = %v", res.Sorted())
	}
	// Four-hop: ann to carl, both like p: certain.
	q2 := MustParse("ans(x, y) :- x -[f f f f]-> y, x -[l]-> w, y -[l]-> w")
	res2, err := Certain(u, q2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Len() != 1 || !res2.Has("ann", "carl") {
		t.Fatalf("answers = %v", res2.Sorted())
	}
	// Tuples through null nodes are dropped.
	q3 := MustParse("ans(x, y) :- x -[f]-> y")
	res3, err := Certain(u, q3)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Len() != 0 {
		t.Fatalf("null tuples leaked: %v", res3.Sorted())
	}
}

func TestTupleSetOps(t *testing.T) {
	a, b := NewTupleSet(), NewTupleSet()
	n1 := datagraph.Node{ID: "x", Value: datagraph.V("1")}
	n2 := datagraph.Node{ID: "y", Value: datagraph.V("2")}
	a.Add(Tuple{n1, n2})
	b.Add(Tuple{n1, n2})
	b.Add(Tuple{n2, n1})
	if !a.SubsetOf(b) || b.SubsetOf(a) || a.Equal(b) {
		t.Fatal("set relations wrong")
	}
	if len(b.Sorted()) != 2 {
		t.Fatal("sorted wrong")
	}
}

func TestValidate(t *testing.T) {
	q := &Query{Head: []Var{"x"}}
	if err := q.Validate(); err == nil {
		t.Fatal("no atoms must fail")
	}
}
