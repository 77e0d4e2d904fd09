package workload

import (
	"testing"

	"repro/internal/datagraph"
	"repro/internal/ree"
)

func TestRandomGraphDeterministic(t *testing.T) {
	spec := GraphSpec{Nodes: 50, Edges: 120, Labels: []string{"a", "b", "c"}, Values: 10, Seed: 42}
	g1 := RandomGraph(spec)
	g2 := RandomGraph(spec)
	if g1.String() != g2.String() {
		t.Fatal("same seed must give the same graph")
	}
	spec.Seed = 43
	g3 := RandomGraph(spec)
	if g1.String() == g3.String() {
		t.Fatal("different seeds should give different graphs")
	}
	if g1.NumNodes() != 50 {
		t.Fatalf("nodes = %d", g1.NumNodes())
	}
	// Edge count ≤ requested (duplicates collapse under set semantics).
	if g1.NumEdges() > 120 || g1.NumEdges() == 0 {
		t.Fatalf("edges = %d", g1.NumEdges())
	}
	// Value pool respected.
	if len(g1.Values()) > 10 {
		t.Fatalf("values = %d", len(g1.Values()))
	}
}

func TestRandomGraphDefaults(t *testing.T) {
	g := RandomGraph(GraphSpec{Nodes: 5, Edges: 5, Seed: 1})
	if g.NumNodes() != 5 {
		t.Fatal("defaults should work")
	}
	for _, l := range g.Labels() {
		if l != "a" && l != "b" {
			t.Fatalf("unexpected default label %q", l)
		}
	}
}

func TestChain(t *testing.T) {
	g := Chain(10, "e", 0)
	if g.NumNodes() != 11 || g.NumEdges() != 10 {
		t.Fatalf("chain size: %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	if len(g.Values()) != 11 {
		t.Fatal("all-distinct values expected")
	}
	g2 := Chain(10, "e", 3)
	if len(g2.Values()) != 3 {
		t.Fatalf("pooled values = %d, want 3", len(g2.Values()))
	}
}

func TestSocialNetwork(t *testing.T) {
	g := SocialNetwork(20, 10, 3, 2, 7)
	if g.NumNodes() != 30 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	hasKnows, hasLikes := false, false
	for _, l := range g.Labels() {
		if l == "knows" {
			hasKnows = true
		}
		if l == "likes" {
			hasLikes = true
		}
	}
	if !hasKnows || !hasLikes {
		t.Fatal("social network should have knows and likes edges")
	}
	// Determinism.
	if g.String() != SocialNetwork(20, 10, 3, 2, 7).String() {
		t.Fatal("social network must be deterministic")
	}
}

func TestRandomRelationalMapping(t *testing.T) {
	m := RandomRelationalMapping(MappingSpec{
		SourceLabels: []string{"a", "b"},
		TargetLabels: []string{"x", "y"},
		Rules:        5,
		MaxWordLen:   3,
		Seed:         99,
	})
	if len(m.Rules) != 5 {
		t.Fatalf("rules = %d", len(m.Rules))
	}
	if !m.IsLAV() || !m.IsRelational() {
		t.Fatal("generated mapping must be LAV relational")
	}
}

func TestRandomREEQuery(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		e := RandomREEQuery(QuerySpec{Labels: []string{"x", "y"}, Depth: 3, AllowNeq: false, Seed: seed})
		if !ree.IsEqualityOnly(e) {
			t.Fatalf("seed %d: AllowNeq=false produced inequality: %s", seed, e)
		}
		// Must parse back (valid syntax).
		if _, err := ree.Parse(e.String()); err != nil {
			t.Fatalf("seed %d: unparseable %q: %v", seed, e, err)
		}
	}
	foundNeq := false
	for seed := int64(0); seed < 30; seed++ {
		e := RandomREEQuery(QuerySpec{Labels: []string{"x"}, Depth: 4, AllowNeq: true, Seed: seed})
		if ree.CountNeq(e) > 0 {
			foundNeq = true
		}
	}
	if !foundNeq {
		t.Fatal("AllowNeq=true should eventually produce inequalities")
	}
}

func TestRandomPathWithTests(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		e := RandomPathWithTests([]string{"p", "q"}, 4, 1, seed)
		if !ree.IsPathWithTests(e) {
			t.Fatalf("seed %d: not a path with tests: %s", seed, e)
		}
		if ree.CountNeq(e) > 1 {
			t.Fatalf("seed %d: too many inequalities: %s", seed, e)
		}
	}
}

func TestRandomPCP(t *testing.T) {
	in := RandomPCP(3, 2, 5)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(in.Tiles) != 3 {
		t.Fatalf("tiles = %d", len(in.Tiles))
	}
	if in.String() != RandomPCP(3, 2, 5).String() {
		t.Fatal("PCP generation must be deterministic")
	}
}

func TestSkewedDistribution(t *testing.T) {
	// Quadratic skew: low values should be much more frequent.
	g := RandomGraph(GraphSpec{Nodes: 2000, Edges: 0, Values: 100, Seed: 11})
	counts := map[datagraph.Value]int{}
	for _, n := range g.Nodes() {
		counts[n.Value]++
	}
	if counts[datagraph.V("d0")] < counts[datagraph.V("d90")] {
		t.Fatal("value skew should favour low indices")
	}
}
