package workload

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/datagraph"
	"repro/internal/ree"
)

// TestServingRoundTrips pins the wire forms of the serving scenario: the
// graph text re-parses to an identical graph, the mapping text re-parses to
// the same rules, and every query text re-parses to a query with identical
// answers — the property the HTTP server and the load generator rely on.
func TestServingRoundTrips(t *testing.T) {
	sc := Serving(ServingSpec{Nodes: 120, Edges: 360, Queries: 12, Seed: 7})

	g2, err := datagraph.ParseString(sc.GraphText)
	if err != nil {
		t.Fatalf("graph text does not parse: %v", err)
	}
	if g2.NumNodes() != sc.Graph.NumNodes() || g2.NumEdges() != sc.Graph.NumEdges() {
		t.Fatalf("graph round trip changed size: %d/%d -> %d/%d",
			sc.Graph.NumNodes(), sc.Graph.NumEdges(), g2.NumNodes(), g2.NumEdges())
	}

	m2, err := core.ParseMappingString(sc.MappingText)
	if err != nil {
		t.Fatalf("mapping text does not parse: %v", err)
	}
	if len(m2.Rules) != len(sc.Mapping.Rules) {
		t.Fatalf("mapping round trip changed rule count: %d -> %d",
			len(sc.Mapping.Rules), len(m2.Rules))
	}

	if len(sc.QueryTexts) != len(sc.Queries) {
		t.Fatalf("want one text per query, got %d texts for %d queries",
			len(sc.QueryTexts), len(sc.Queries))
	}
	// Evaluate original and re-parsed queries over the universal solution
	// of the scenario itself.
	u, err := core.NewMaterialization(core.MustCompile(sc.Mapping), sc.Graph).UniversalCtx(context.Background())
	if err != nil {
		t.Fatalf("universal solution: %v", err)
	}
	for i, text := range sc.QueryTexts {
		q2, err := ree.ParseQuery(text)
		if err != nil {
			t.Fatalf("query %d text %q does not parse: %v", i, text, err)
		}
		want := sc.Queries[i].Eval(u, datagraph.SQLNulls)
		got := q2.Eval(u, datagraph.SQLNulls)
		if !got.Equal(want) {
			t.Fatalf("query %d (%q): re-parsed answers differ", i, text)
		}
	}
}
