package workload

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/datagraph"
)

// ServingSpec parameterises Serving, the canonical network-serving
// scenario: one (mapping, source graph) pair registered on a server and a
// stream of distinct selective queries replayed against it by many
// concurrent clients. Zero fields take the E15/E16 defaults.
type ServingSpec struct {
	// Nodes and Edges size the source graph (defaults 3000/9000 — sized so
	// solution materialization dominates a single selective query by >20x,
	// the regime the serving layer amortizes).
	Nodes, Edges int
	// Queries is the stream length (default 50).
	Queries int
	// Seed makes the whole scenario deterministic (default 16).
	Seed int64
}

// ServingScenario bundles everything a serving experiment needs, in both
// in-memory and wire (text) form, so the load generator, the E16
// experiment, the CI smoke script and the cross-validation tests all replay
// exactly the same workload: the graph and mapping as objects and as their
// parseable text formats, and the query stream as objects and as parseable
// REE texts.
type ServingScenario struct {
	Graph       *datagraph.Graph
	GraphText   string
	Mapping     *core.Mapping
	MappingText string
	Queries     []core.Query
	QueryTexts  []string
}

// Serving generates the canonical serving workload: bulk relations a and b
// dominate the exchange (and hence solution materialization), and the
// stream asks selective paths-with-tests against the small hot relation c —
// the regime where per-request fresh sessions pay the full
// materialization cost on every call and a shared server session pays it
// once.
func Serving(spec ServingSpec) ServingScenario {
	if spec.Nodes <= 0 {
		spec.Nodes = 3000
	}
	if spec.Edges <= 0 {
		spec.Edges = 3 * spec.Nodes
	}
	if spec.Queries <= 0 {
		spec.Queries = 50
	}
	if spec.Seed == 0 {
		spec.Seed = 16
	}
	g := RandomGraph(GraphSpec{
		Nodes: spec.Nodes, Edges: spec.Edges,
		Labels:       []string{"a", "b", "c"},
		LabelWeights: []int{30, 30, 1},
		Values:       spec.Nodes / 5,
		Seed:         spec.Seed,
	})
	mappingText := "rule a -> p q\nrule b -> r q\nrule c -> s t\n"
	m, err := core.ParseMappingString(mappingText)
	if err != nil {
		// The text above is a constant; failing to parse it is a bug, not
		// an input error.
		panic(fmt.Sprintf("workload: serving mapping text does not parse: %v", err))
	}
	queries := QueryStream(QueryStreamSpec{
		Labels: []string{"s", "t"}, N: spec.Queries,
		Shape: ShapePaths, Depth: 2, AllowNeq: true, Seed: spec.Seed,
	})
	texts := make([]string, len(queries))
	for i, q := range queries {
		texts[i] = fmt.Sprint(q)
	}
	return ServingScenario{
		Graph:       g,
		GraphText:   g.String(),
		Mapping:     m,
		MappingText: mappingText,
		Queries:     queries,
		QueryTexts:  texts,
	}
}

// TargetLabels returns the mapping's target alphabet, useful for building
// extra ad-hoc queries against the scenario.
func (s ServingScenario) TargetLabels() []string { return []string{"p", "q", "r", "s", "t"} }

// String summarises the scenario.
func (s ServingScenario) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "serving scenario: V=%d E=%d, %d rules, %d queries",
		s.Graph.NumNodes(), s.Graph.NumEdges(), len(s.Mapping.Rules), len(s.Queries))
	return b.String()
}
