package core

import (
	"reflect"
	"testing"

	"repro/internal/datagraph"
)

// sourceGraph builds a small source: two people connected by 'knows', each
// 'likes' a post.
func sourceGraph(t *testing.T) *datagraph.Graph {
	t.Helper()
	g := datagraph.New()
	g.MustAddNode("ann", datagraph.V("30"))
	g.MustAddNode("bob", datagraph.V("25"))
	g.MustAddNode("p1", datagraph.V("hello"))
	g.MustAddEdge("ann", "knows", "bob")
	g.MustAddEdge("ann", "likes", "p1")
	g.MustAddEdge("bob", "likes", "p1")
	return g
}

func TestClassification(t *testing.T) {
	lavGav := NewMapping(R("a", "b"), R("c", "d"))
	if !lavGav.IsLAV() || !lavGav.IsGAV() || !lavGav.IsRelational() || !lavGav.IsRelationalReachability() {
		t.Fatal("LAV/GAV mapping misclassified")
	}
	relational := NewMapping(R("a b", "c d e"), R("f*", "g"))
	if relational.IsLAV() {
		t.Fatal("non-atomic source accepted as LAV")
	}
	if relational.IsGAV() {
		t.Fatal("non-atomic target accepted as GAV")
	}
	if !relational.IsRelational() {
		t.Fatal("word targets should be relational")
	}
	relReach := NewMapping(R("a", "b"), R("c", ".*"))
	if relReach.IsRelational() {
		t.Fatal("reachability target accepted as relational")
	}
	if !relReach.IsRelationalReachability() {
		t.Fatal("word+reachability targets should be relational/reachability")
	}
	arbitrary := NewMapping(R("a", "b*"))
	if arbitrary.IsRelationalReachability() {
		t.Fatal("b* target is neither word nor Σ*")
	}
}

func TestLabels(t *testing.T) {
	m := NewMapping(R("a b", "x y"), R("c", "x z"))
	if got := m.SourceLabels(); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("SourceLabels = %v", got)
	}
	if got := m.TargetLabels(); !reflect.DeepEqual(got, []string{"x", "y", "z"}) {
		t.Fatalf("TargetLabels = %v", got)
	}
}

func TestSatisfiesCopyMapping(t *testing.T) {
	gs := sourceGraph(t)
	m := NewMapping(R("knows", "knows"), R("likes", "likes"))
	// The source itself is a solution under the copy mapping.
	if !m.Satisfies(gs, gs) {
		t.Fatal("identity must satisfy the copy mapping")
	}
	// A target missing an edge is not a solution.
	gt := gs.Clone()
	gt2 := datagraph.New()
	for _, n := range gt.Nodes() {
		gt2.MustAddNode(n.ID, n.Value)
	}
	gt2.MustAddEdge("ann", "knows", "bob")
	gt2.MustAddEdge("ann", "likes", "p1")
	// bob-likes-p1 missing.
	if m.Satisfies(gs, gt2) {
		t.Fatal("missing edge must violate the mapping")
	}
	ok, reason := m.Check(gs, gt2)
	if ok || reason == "" {
		t.Fatal("Check should explain the violation")
	}
}

func TestSatisfiesValueMismatch(t *testing.T) {
	gs := sourceGraph(t)
	m := NewMapping(R("knows", "knows"))
	gt := datagraph.New()
	gt.MustAddNode("ann", datagraph.V("31")) // wrong value
	gt.MustAddNode("bob", datagraph.V("25"))
	gt.MustAddEdge("ann", "knows", "bob")
	if m.Satisfies(gs, gt) {
		t.Fatal("data values are part of node identity (Definition 1)")
	}
}

func TestSatisfiesMissingNode(t *testing.T) {
	gs := sourceGraph(t)
	m := NewMapping(R("knows", "knows"))
	gt := datagraph.New()
	gt.MustAddNode("ann", datagraph.V("30"))
	if m.Satisfies(gs, gt) {
		t.Fatal("missing target node must violate the mapping")
	}
}

func TestSatisfiesWordTarget(t *testing.T) {
	gs := sourceGraph(t)
	// knows must be realised as a two-step path f f.
	m := NewMapping(R("knows", "f f"))
	gt := datagraph.New()
	gt.MustAddNode("ann", datagraph.V("30"))
	gt.MustAddNode("bob", datagraph.V("25"))
	gt.MustAddNode("mid", datagraph.V("whatever"))
	gt.MustAddEdge("ann", "f", "mid")
	gt.MustAddEdge("mid", "f", "bob")
	if !m.Satisfies(gs, gt) {
		t.Fatal("two-step path should satisfy the word rule")
	}
	// Direct edge does not satisfy f·f.
	gt3 := datagraph.New()
	gt3.MustAddNode("ann", datagraph.V("30"))
	gt3.MustAddNode("bob", datagraph.V("25"))
	gt3.MustAddEdge("ann", "f", "bob")
	if m.Satisfies(gs, gt3) {
		t.Fatal("single f edge does not realise f·f")
	}
}

func TestSatisfiesReachabilityTarget(t *testing.T) {
	gs := sourceGraph(t)
	m := NewMapping(R("knows", ".*"))
	gt := datagraph.New()
	gt.MustAddNode("ann", datagraph.V("30"))
	gt.MustAddNode("bob", datagraph.V("25"))
	gt.MustAddEdge("ann", "anything_at_all", "bob")
	if !m.Satisfies(gs, gt) {
		t.Fatal("any path satisfies Σ*")
	}
	// Even a longer chain.
	gt.MustAddNode("c", datagraph.V("x"))
	if !m.Satisfies(gs, gt) {
		t.Fatal("extra nodes don't hurt")
	}
}

func TestParseMappingRoundTrip(t *testing.T) {
	m := NewMapping(R("knows", "f f"), R("likes", ".*"), R("a b", "c"))
	text := m.String()
	m2, err := ParseMappingString(text)
	if err != nil {
		t.Fatal(err)
	}
	if m2.String() != text {
		t.Fatalf("round trip:\n%s\nvs\n%s", text, m2.String())
	}
}

func TestParseMappingErrors(t *testing.T) {
	for _, bad := range []string{
		"",                   // no rules
		"knows -> f",         // missing 'rule' keyword
		"rule knows f",       // missing ->
		"rule kn( -> f",      // bad source
		"rule knows -> (",    // bad target
		"# only a comment\n", // no rules
	} {
		if _, err := ParseMappingString(bad); err == nil {
			t.Errorf("ParseMappingString(%q) should fail", bad)
		}
	}
	// Comments and blank lines are fine alongside a rule.
	m, err := ParseMappingString("# hi\n\nrule a -> b c\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Rules) != 1 {
		t.Fatal("expected one rule")
	}
}

func TestDom(t *testing.T) {
	gs := sourceGraph(t)
	// Only 'knows' endpoints are in dom.
	m := NewMapping(R("knows", "k"))
	dom := mat(m, gs).DomNodes()
	if len(dom) != 2 {
		t.Fatalf("dom = %v", dom)
	}
	ids := mat(m, gs).DomIDs()
	if _, ok := ids["ann"]; !ok {
		t.Fatal("ann should be in dom")
	}
	if _, ok := ids["p1"]; ok {
		t.Fatal("p1 should not be in dom")
	}
	// Adding the likes rule brings p1 in.
	m2 := NewMapping(R("knows", "k"), R("likes", "l"))
	if len(mat(m2, gs).DomNodes()) != 3 {
		t.Fatal("likes endpoints should join dom")
	}
}
