package threecol

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/datagraph"
	"repro/internal/ree"
)

func triangle() Graph { return Graph{N: 3, Edges: [][2]int{{0, 1}, {1, 2}, {0, 2}}} }

func k4() Graph {
	return Graph{N: 4, Edges: [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}}
}

func TestValidate(t *testing.T) {
	if err := triangle().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Graph{N: 2, Edges: [][2]int{{0, 5}}}).Validate(); err == nil {
		t.Fatal("out-of-range edge must be rejected")
	}
	if err := (Graph{N: 2, Edges: [][2]int{{1, 1}}}).Validate(); err == nil {
		t.Fatal("self-loop must be rejected")
	}
}

func TestBruteForceOracle(t *testing.T) {
	if !ThreeColorable(triangle()) {
		t.Fatal("triangle is 3-colourable")
	}
	if ThreeColorable(k4()) {
		t.Fatal("K4 is not 3-colourable")
	}
	// 5-cycle is 3-colourable; 5-cycle plus a universal vertex (wheel W5)
	// is not.
	c5 := Graph{N: 5, Edges: [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}}}
	if !ThreeColorable(c5) {
		t.Fatal("C5 is 3-colourable")
	}
	w5 := Graph{N: 6, Edges: append(append([][2]int{}, c5.Edges...),
		[2]int{5, 0}, [2]int{5, 1}, [2]int{5, 2}, [2]int{5, 3}, [2]int{5, 4})}
	if ThreeColorable(w5) {
		t.Fatal("W5 (odd wheel) is not 3-colourable")
	}
	if !ThreeColorable(Graph{N: 0}) {
		t.Fatal("empty graph is trivially colourable")
	}
}

func TestReductionArtefacts(t *testing.T) {
	red, err := Reduce(triangle())
	if err != nil {
		t.Fatal(err)
	}
	if !red.Mapping.IsLAV() {
		t.Fatal("Proposition 3 mapping must be LAV")
	}
	if !red.Mapping.IsRelational() {
		t.Fatal("Proposition 3 mapping must be relational")
	}
	// The query uses exactly three inequalities, matching the paper.
	if got := ree.CountNeq(red.Query.Expr()); got != 3 {
		t.Fatalf("query has %d inequalities, want 3", got)
	}
	if ree.IsEqualityOnly(red.Query.Expr()) {
		t.Fatal("query should not be equality-only")
	}
}

func TestProperColouringSolutionAvoidsQuery(t *testing.T) {
	red, err := Reduce(triangle())
	if err != nil {
		t.Fatal(err)
	}
	sol, err := ProperColouringSolution(triangle())
	if err != nil {
		t.Fatal(err)
	}
	// It is a genuine solution of the mapping…
	if ok, why := red.Mapping.Check(red.Source, sol); !ok {
		t.Fatalf("colouring solution must satisfy the mapping: %s", why)
	}
	// …and it avoids the error query for the asked pair.
	res := red.Query.Eval(sol, datagraph.MarkedNulls)
	fi, _ := sol.IndexOf(red.From)
	ti, _ := sol.IndexOf(red.To)
	if res.Has(fi, ti) {
		t.Fatal("proper colouring solution must avoid the error query")
	}
	// Non-3-colourable input: no colouring solution exists.
	if _, err := ProperColouringSolution(k4()); err == nil {
		t.Fatal("K4 has no proper colouring solution")
	}
}

func TestReductionAgreesWithOracleSmall(t *testing.T) {
	cases := []struct {
		name string
		g    Graph
	}{
		{"triangle", triangle()},
		{"K4", k4()},
		{"path3", Graph{N: 3, Edges: [][2]int{{0, 1}, {1, 2}}}},
		{"single", Graph{N: 1}},
	}
	for _, c := range cases {
		certain, err := CertainNon3Colorable(c.g, core.ExactOptions{MaxNulls: c.g.N + 1})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want := !ThreeColorable(c.g)
		if certain != want {
			t.Errorf("%s: certain=%v, non-3-colourable=%v", c.name, certain, want)
		}
	}
}

func TestReductionAgreesWithOracleRandom(t *testing.T) {
	if testing.Short() {
		t.Skip("random cross-validation skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 12; trial++ {
		n := 3 + rng.Intn(3) // 3..5 vertices
		var edges [][2]int
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.7 {
					edges = append(edges, [2]int{i, j})
				}
			}
		}
		g := Graph{N: n, Edges: edges}
		certain, err := CertainNon3Colorable(g, core.ExactOptions{MaxNulls: n + 1})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := !ThreeColorable(g)
		if certain != want {
			t.Errorf("trial %d (%v): certain=%v, non-3-colourable=%v", trial, g, certain, want)
		}
	}
}

// SQL nulls cannot decide coNP-hard instances: the underapproximation
// reports "not certain" even for K4 (the complexity-gap behaviour the paper
// predicts in Remark 1).
func TestSQLNullsMissHardInstances(t *testing.T) {
	red, err := Reduce(k4())
	if err != nil {
		t.Fatal(err)
	}
	mat := core.NewMaterialization(core.MustCompile(red.Mapping), red.Source)
	ans, err := mat.CertainNull(context.Background(), red.Query)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Has(red.From, red.To) {
		t.Fatal("SQL-null approximation should miss the K4 certain answer")
	}
}
