package repro

import (
	"context"
	"errors"
	"testing"

	"repro/internal/syntax"
)

// TestFacadeEndToEnd exercises the public API exactly as the package
// documentation advertises.
func TestFacadeEndToEnd(t *testing.T) {
	gs := NewGraph()
	gs.MustAddNode("ann", V("30"))
	gs.MustAddNode("bob", V("25"))
	gs.MustAddEdge("ann", "knows", "bob")

	m := NewMapping(R("knows", "follows follows"))
	if !m.IsLAV() || !m.IsRelational() {
		t.Fatal("classification broken through facade")
	}

	ctx := context.Background()
	s, err := NewSession(MustCompile(m), gs)
	if err != nil {
		t.Fatal(err)
	}
	u, err := s.UniversalSolution(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if u.NumNodes() != 3 {
		t.Fatalf("universal solution nodes = %d", u.NumNodes())
	}
	li, err := s.LeastInformativeSolution(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if li.NumNodes() != 3 {
		t.Fatalf("least informative nodes = %d", li.NumNodes())
	}

	q := MustREE("(follows follows)!=")
	ans, err := s.CertainNull(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Has("ann", "bob") {
		t.Fatalf("certain = %v", ans)
	}
	exact, err := s.CertainExact(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Equal(exact) {
		t.Fatal("facade algorithms disagree")
	}
	liAns, err := s.CertainLeastInformative(ctx, MustREE("follows follows"))
	if err != nil {
		t.Fatal(err)
	}
	if !liAns.Has("ann", "bob") {
		t.Fatal("least-informative missing navigational answer")
	}
	got, err := s.CertainOneInequality(ctx, q, "ann", "bob")
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Fatal("one-inequality algorithm disagrees")
	}
	got5, err := s.CertainDataPathArbitrary(ctx, q, "ann", "bob")
	if err != nil {
		t.Fatal(err)
	}
	if !got5 {
		t.Fatal("Proposition 5 procedure disagrees")
	}
}

func TestFacadeParsers(t *testing.T) {
	g, err := ParseGraph("node a 1\nnode b 2\nedge a x b\n")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 2 {
		t.Fatal("graph parser broken")
	}
	m, err := ParseMapping("rule x -> y z\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Rules) != 1 {
		t.Fatal("mapping parser broken")
	}
	if _, err := ParseREE("(a b)="); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseREM("!x.(a[x=])"); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseRPQ("a*"); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseRPQ("(("); err == nil {
		t.Fatal("bad RPQ accepted")
	}
	phi, err := ParseGXNode("<x=>")
	if err != nil {
		t.Fatal(err)
	}
	alpha, err := ParseGXPath("x (x- x)=")
	if err != nil {
		t.Fatal(err)
	}
	if sat := EvalGXNode(g, phi, MarkedNulls); len(sat) != 0 {
		t.Fatalf("⟨x=⟩ on distinct values = %v", sat)
	}
	if rel := EvalGXPath(g, alpha, MarkedNulls); rel.Len() == 0 {
		t.Fatal("x (x- x)= should match a->b via backtrack")
	}
	// SQL-null semantics through the facade.
	gn := NewGraph()
	gn.MustAddNode("n1", Null())
	gn.MustAddNode("n2", Null())
	gn.MustAddEdge("n1", "x", "n2")
	if sat := EvalGXNode(gn, phi, SQLNulls); len(sat) != 0 {
		t.Fatal("null comparisons must fail under SQL semantics")
	}
	if sat := EvalGXNode(gn, phi, MarkedNulls); len(sat) == 0 {
		t.Fatal("marked nulls compare as constants")
	}
}

// TestFacadeParseErrors checks that every text parser of the facade passes
// the query language's *syntax.ParseError through, naming the language
// that rejected the text.
func TestFacadeParseErrors(t *testing.T) {
	cases := []struct {
		name, lang, text string
		parse            func(string) error
	}{
		{"ParseREE", "ree", "(a b", func(s string) error { _, err := ParseREE(s); return err }},
		{"ParseREM", "rem", "!x.a[x]", func(s string) error { _, err := ParseREM(s); return err }},
		{"ParseRPQ", "rex", "a |", func(s string) error { _, err := ParseRPQ(s); return err }},
		{"ParseGXPath", "gxpath", "a |", func(s string) error { _, err := ParseGXPath(s); return err }},
		{"ParseGXNode", "gxpath", "<a", func(s string) error { _, err := ParseGXNode(s); return err }},
		{"ParseConjunctive", "ree", "ans(x, y) :- x -[a)]-> y", func(s string) error { _, err := ParseConjunctive(s); return err }},
		{"ParseMapping", "rex", "rule a -> b |\n", func(s string) error { _, err := ParseMapping(s); return err }},
	}
	for _, c := range cases {
		var pe *syntax.ParseError
		err := c.parse(c.text)
		if !errors.As(err, &pe) {
			t.Errorf("%s(%q) = %v, want a *syntax.ParseError inside", c.name, c.text, err)
			continue
		}
		if pe.Lang != c.lang {
			t.Errorf("%s(%q): ParseError from %q, want %q", c.name, c.text, pe.Lang, c.lang)
		}
	}
}
