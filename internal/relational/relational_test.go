package relational

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/datagraph"
)

// mat opens a fresh materialization of (m, gs).
func mat(m *core.Mapping, gs *datagraph.Graph) *core.Materialization {
	return core.NewMaterialization(core.MustCompile(m), gs)
}

func sample(t *testing.T) (*datagraph.Graph, *core.Mapping) {
	t.Helper()
	gs := datagraph.New()
	gs.MustAddNode("a", datagraph.V("1"))
	gs.MustAddNode("b", datagraph.V("2"))
	gs.MustAddNode("c", datagraph.V("3"))
	gs.MustAddEdge("a", "e", "b")
	gs.MustAddEdge("b", "e", "c")
	gs.MustAddEdge("a", "f", "c")
	m := core.NewMapping(core.R("e", "p q"), core.R("f", "r"))
	return gs, m
}

func TestRoundTripGraphInstance(t *testing.T) {
	gs, _ := sample(t)
	gs.MustAddNode("nullnode", datagraph.Null())
	gs.MustAddEdge("a", "g", "nullnode")
	in := FromGraph(gs)
	back, err := in.ToGraph()
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != gs.String() {
		t.Fatalf("round trip mismatch:\n%s\nvs\n%s", gs, back)
	}
}

func TestKeyViolation(t *testing.T) {
	in := NewInstance()
	in.AddNode("x", datagraph.V("1"))
	in.AddNode("x", datagraph.V("2"))
	if _, bad := in.KeyViolation(); !bad {
		t.Fatal("duplicate id with two values must violate the key")
	}
	if _, err := in.ToGraph(); err == nil {
		t.Fatal("ToGraph must reject key violations")
	}
}

func TestDanglingEdge(t *testing.T) {
	in := NewInstance()
	in.AddNode("x", datagraph.V("1"))
	in.AddEdge("x", "a", "ghost")
	if _, bad := in.DanglingEdge(); !bad {
		t.Fatal("edge to undeclared node must be flagged")
	}
	if _, err := in.ToGraph(); err == nil {
		t.Fatal("ToGraph must reject dangling edges")
	}
}

func TestEncodeRequiresRelational(t *testing.T) {
	m := core.NewMapping(core.R("a", ".*"))
	if _, err := Encode(m); err == nil {
		t.Fatal("reachability target is not relational")
	}
}

// Proposition 1, direction 1: if Gt is a solution for Gs under M, then
// (D_Gs, D_Gt) satisfies M_rel.
func TestProp1SolutionsSatisfyMrel(t *testing.T) {
	gs, m := sample(t)
	mr, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	u, err := mat(m, gs).UniversalCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	li, err := mat(m, gs).LeastInformativeCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for name, sol := range map[string]*datagraph.Graph{"universal": u, "least-informative": li} {
		if ok, why := mr.Satisfied(FromGraph(gs), FromGraph(sol)); !ok {
			t.Errorf("%s solution should satisfy M_rel: %s", name, why)
		}
	}
}

// Proposition 1, direction 2: if (D_Gs, D_Gt) satisfies M_rel then the
// decoded Gt is a solution under M — checked on mutations of a valid
// solution.
func TestProp1ViolationsAgree(t *testing.T) {
	gs, m := sample(t)
	mr, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	u, err := mat(m, gs).UniversalCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ds := FromGraph(gs)

	// Remove each edge of the solution in turn; both views must agree on
	// whether the mutant is still a solution.
	for _, victim := range u.Edges() {
		mutant := datagraph.New()
		for _, n := range u.Nodes() {
			mutant.MustAddNode(n.ID, n.Value)
		}
		for _, e := range u.Edges() {
			if e == victim {
				continue
			}
			mutant.MustAddEdge(e.From, e.Label, e.To)
		}
		graphView := m.Satisfies(gs, mutant)
		relView, _ := mr.Satisfied(ds, FromGraph(mutant))
		if graphView != relView {
			t.Errorf("edge %v removed: graph view %v, relational view %v", victim, graphView, relView)
		}
	}
	// Remove a dom node's value (change it): both views must reject.
	mutant := u.Specialize(map[datagraph.NodeID]datagraph.Value{"a": datagraph.V("999")})
	if m.Satisfies(gs, mutant) {
		t.Fatal("graph view must reject changed dom value")
	}
	if ok, _ := mr.Satisfied(ds, FromGraph(mutant)); ok {
		t.Fatal("relational view must reject changed dom value")
	}
}

func TestMrelEpsilonTgd(t *testing.T) {
	gs := datagraph.New()
	gs.MustAddNode("x", datagraph.V("1"))
	gs.MustAddNode("y", datagraph.V("2"))
	gs.MustAddEdge("x", "a", "y")
	m := core.NewMapping(core.R("a", "()"))
	mr, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	// Any target fails: the ε tgd demands x = y.
	gt := gs.Clone()
	if ok, _ := mr.Satisfied(FromGraph(gs), FromGraph(gt)); ok {
		t.Fatal("ε tgd over distinct nodes must fail")
	}
}

func TestChainReachJoins(t *testing.T) {
	// A genuine relational join: chain p·q over tuples.
	dt := NewInstance()
	for i := 0; i < 4; i++ {
		dt.AddNode(fmt.Sprintf("n%d", i), datagraph.V(fmt.Sprintf("%d", i)))
	}
	dt.AddEdge("n0", "p", "n1")
	dt.AddEdge("n1", "q", "n2")
	dt.AddEdge("n1", "q", "n3")
	got := chainReach(dt, "n0", []string{"p", "q"})
	if len(got) != 2 {
		t.Fatalf("reach = %v", got)
	}
	if _, ok := got["n2"]; !ok {
		t.Fatal("n2 missing")
	}
	if chainReach(dt, "n0", []string{"q"}) != nil {
		t.Fatal("no q-edge from n0")
	}
}

func TestSTTgdString(t *testing.T) {
	_, m := sample(t)
	mr, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(mr.Tgds) != 2 || mr.Tgds[0].String() == "" {
		t.Fatalf("tgds = %v", mr.Tgds)
	}
}
