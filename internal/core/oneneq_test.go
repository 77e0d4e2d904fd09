package core

import (
	"testing"

	"repro/internal/datagraph"
	"repro/internal/ree"
)

// edgeSource builds x -a-> y with distinct values.
func edgeSource(t *testing.T) *datagraph.Graph {
	t.Helper()
	g := datagraph.New()
	g.MustAddNode("x", datagraph.V("1"))
	g.MustAddNode("y", datagraph.V("2"))
	g.MustAddEdge("x", "a", "y")
	return g
}

func TestOneNeqEndpointConstants(t *testing.T) {
	gs := edgeSource(t)
	m := NewMapping(R("a", "b b"))
	// (b b)!=: endpoints are constants 1 ≠ 2 — unkillable threat, certain.
	q := ree.MustParseQuery("(b b)!=")
	got, err := mat(m, gs).CertainOneInequality(ctx, q, "x", "y", OneNeqOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Fatal("(b b)!= must be certain over distinct constants")
	}
	// Agreement with the exact oracle.
	exact, err := mat(m, gs).CertainExact(ctx, q, DefaultExactOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !exact.Has("x", "y") {
		t.Fatal("oracle disagrees")
	}
}

func TestOneNeqKillableThreat(t *testing.T) {
	gs := edgeSource(t)
	m := NewMapping(R("a", "b b"))
	// b!= b: compares x's constant with the null — adversary sets the null
	// equal to x's value and kills the match.
	q := ree.MustParseQuery("b!= b")
	got, err := mat(m, gs).CertainOneInequality(ctx, q, "x", "y", OneNeqOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Fatal("b!= b should not be certain (null can equal x)")
	}
	exact, err := mat(m, gs).CertainExact(ctx, q, DefaultExactOptions())
	if err != nil {
		t.Fatal(err)
	}
	if exact.Has("x", "y") {
		t.Fatal("oracle disagrees: exact says certain")
	}
}

func TestOneNeqEqualityPropagation(t *testing.T) {
	// Two parallel paths share endpoints; killing one threat activates
	// another: rule (a, b b) applied twice via two source edges into a
	// diamond... Construct: x -a-> y and x -c-> y with rules (a, b b) and
	// (c, b b): universal solution has two parallel b·b paths x→y with
	// nulls n1, n2.
	gs := datagraph.New()
	gs.MustAddNode("x", datagraph.V("1"))
	gs.MustAddNode("y", datagraph.V("2"))
	gs.MustAddEdge("x", "a", "y")
	gs.MustAddEdge("x", "c", "y")
	m := NewMapping(R("a", "b b"), R("c", "b b"))
	// Query b= b : needs δ(x) = δ(mid). The adversary must avoid *both*
	// paths' midpoints equalling x's value — easy: set both to anything
	// else. Not certain.
	q := ree.MustParseQuery("b= b")
	got, err := mat(m, gs).CertainOneInequality(ctx, q, "x", "y", OneNeqOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Fatal("b= b should not be certain")
	}
	// Query with zero tests: plain b b is certain.
	got2, err := mat(m, gs).CertainOneInequality(ctx, ree.MustParseQuery("b b"), "x", "y", OneNeqOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !got2 {
		t.Fatal("b b must be certain")
	}
}

// A forced-merge chain: killing the first threat forces a merge that
// activates a second threat whose ≠ endpoints are constants — certain.
func TestOneNeqForcedMergeCascade(t *testing.T) {
	// Source: x -a-> x (self loop), x -e-> z. Rules: (a, b b), (e, b b).
	// Universal solution: x -b-> n1 -b-> x and x -b-> n2 -b-> z.
	// Query from x to x: b (b b)= b ... has no ≠; use instead:
	// Query Q = b!= b from x to x (via n1): threat [x, n1, x] forces
	// n1 := val(x). No cascade yet — then query from x to z:
	// (b b)!= over [x, n2, z] with values 1 vs 3: constants distinct,
	// certain regardless.
	gs := datagraph.New()
	gs.MustAddNode("x", datagraph.V("1"))
	gs.MustAddNode("z", datagraph.V("3"))
	gs.MustAddEdge("x", "a", "x")
	gs.MustAddEdge("x", "e", "z")
	m := NewMapping(R("a", "b b"), R("e", "b b"))

	got, err := mat(m, gs).CertainOneInequality(ctx, ree.MustParseQuery("b!= b"), "x", "x", OneNeqOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Fatal("adversary can set n1 = 1 to kill the only threat")
	}
	got2, err := mat(m, gs).CertainOneInequality(ctx, ree.MustParseQuery("(b b)!="), "x", "z", OneNeqOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !got2 {
		t.Fatal("distinct constants make (b b)!= certain")
	}
	// Cross-check both with the oracle.
	exact, err := mat(m, gs).CertainExact(ctx, ree.MustParseQuery("b!= b"), DefaultExactOptions())
	if err != nil {
		t.Fatal(err)
	}
	if exact.Has("x", "x") {
		t.Fatal("oracle: b!= b should not be certain")
	}
	exact2, err := mat(m, gs).CertainExact(ctx, ree.MustParseQuery("(b b)!="), DefaultExactOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !exact2.Has("x", "z") {
		t.Fatal("oracle: (b b)!= should be certain")
	}
}

// certainOneInequalityAll collects the certain pairs over dom(M, Gs)² of
// the Proposition 4 algorithm, on one shared materialization.
func certainOneInequalityAll(mt *Materialization, q *ree.Query) (*Answers, error) {
	dom := mt.DomNodes()
	out := NewAnswers()
	for _, a := range dom {
		for _, b := range dom {
			ok, err := mt.CertainOneInequality(ctx, q, a.ID, b.ID, OneNeqOptions{})
			if err != nil {
				return nil, err
			}
			if ok {
				out.Add(Answer{From: a, To: b})
			}
		}
	}
	return out, nil
}

// Exhaustive agreement between the fixpoint algorithm and the exponential
// oracle on a batch of one-inequality queries.
func TestOneNeqAgreesWithOracle(t *testing.T) {
	gs := datagraph.New()
	gs.MustAddNode("x", datagraph.V("1"))
	gs.MustAddNode("y", datagraph.V("1")) // same value as x
	gs.MustAddNode("z", datagraph.V("2"))
	gs.MustAddEdge("x", "a", "y")
	gs.MustAddEdge("y", "a", "z")
	gs.MustAddEdge("x", "c", "z")
	m := NewMapping(R("a", "b b"), R("c", "b"))
	queries := []string{
		"b b", "b= b", "b!= b", "(b b)=", "(b b)!=", "b b= ", "b",
		"(b b b b)=", "(b b b b)!=", "b (b b)= b", "b (b b)!= b",
	}
	for _, expr := range queries {
		q := ree.MustParseQuery(expr)
		if ree.CountNeq(q.Expr()) > 1 {
			continue
		}
		exact, err := mat(m, gs).CertainExact(ctx, q, DefaultExactOptions())
		if err != nil {
			t.Fatal(err)
		}
		all, err := certainOneInequalityAll(mat(m, gs), q)
		if err != nil {
			t.Fatal(err)
		}
		if !all.Equal(exact) {
			t.Errorf("query %s: fixpoint %v vs oracle %v", expr, all, exact)
		}
	}
}

func TestOneNeqRejectsWrongQueries(t *testing.T) {
	gs := edgeSource(t)
	m := NewMapping(R("a", "b"))
	if _, err := mat(m, gs).CertainOneInequality(ctx, ree.MustParseQuery("b*"), "x", "y", OneNeqOptions{}); err == nil {
		t.Fatal("star is not a path with tests")
	}
	if _, err := mat(m, gs).CertainOneInequality(ctx, ree.MustParseQuery("b!= b!="), "x", "y", OneNeqOptions{}); err == nil {
		t.Fatal("two inequalities must be rejected")
	}
}

func TestOneNeqMissingEndpoints(t *testing.T) {
	gs := edgeSource(t)
	gs.MustAddNode("lonely", datagraph.V("9"))
	m := NewMapping(R("a", "b"))
	// lonely is not in dom: not certain for any pair involving it.
	got, err := mat(m, gs).CertainOneInequality(ctx, ree.MustParseQuery("b"), "lonely", "y", OneNeqOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Fatal("non-dom node cannot appear in certain answers")
	}
}
