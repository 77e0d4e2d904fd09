// Package threecol implements the Proposition 3 reduction: certain-answer
// computation for data path queries under LAV relational graph schema
// mappings is coNP-hard, by reduction from (non-)3-colorability.
//
// The paper omits the proof ("a direct reduction ... with some
// technicalities"); this package reconstructs one, described here, and
// cross-validates it against a brute-force colouring oracle:
//
//   - Source graph: a hub node `start` with a v-edge to a vertex node x_u
//     per vertex, a c-self-loop on each x_u, symmetric e-edges for the
//     input edges, an f-edge from each x_u to `fin`, and a palette 4-cycle
//     start →p P₁ →p P₂ →p P₃ →p start carrying three distinct palette
//     values.
//
//   - Mapping (LAV relational): copy rules for v, e, f, p and the rule
//     (c, c·c), whose universal solution materialises a fresh null "colour"
//     node n_u on a c·c detour at every vertex.
//
//   - Query Q (an equality RPQ with exactly one equality and three
//     inequalities — the paper's inequality count):
//
//     Q₁ = v c (c e c)= c f            (two adjacent equal colours)
//     Q₂ = p (p (p (p v c)≠)≠)≠ c f    (a colour outside the palette)
//
//     (start, fin) is a certain answer of Q₁+Q₂ iff the input graph is NOT
//     3-colourable: a proper colouring yields a solution avoiding both
//     error patterns, and conversely any error-free solution restricted to
//     the detour colours reads off a proper 3-colouring.
package threecol

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/datagraph"
	"repro/internal/ree"
)

// Graph is a simple undirected graph on vertices 0..N-1.
type Graph struct {
	N     int
	Edges [][2]int
}

// Validate checks vertex indices.
func (g Graph) Validate() error {
	if g.N < 0 {
		return fmt.Errorf("threecol: negative vertex count")
	}
	for _, e := range g.Edges {
		if e[0] < 0 || e[0] >= g.N || e[1] < 0 || e[1] >= g.N {
			return fmt.Errorf("threecol: edge %v out of range", e)
		}
		if e[0] == e[1] {
			return fmt.Errorf("threecol: self-loop %v (never 3-colourable input convention)", e)
		}
	}
	return nil
}

// ThreeColorable decides 3-colourability by exhaustive search with symmetry
// breaking on the first vertex; the brute-force oracle for the reduction
// tests.
func ThreeColorable(g Graph) bool {
	if err := g.Validate(); err != nil {
		return false
	}
	if g.N == 0 {
		return true
	}
	adj := make([][]int, g.N)
	for _, e := range g.Edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	colors := make([]int, g.N)
	for i := range colors {
		colors[i] = -1
	}
	var rec func(v int) bool
	rec = func(v int) bool {
		if v == g.N {
			return true
		}
		maxC := 3
		if v == 0 {
			maxC = 1 // symmetry breaking
		}
		for c := 0; c < maxC; c++ {
			ok := true
			for _, w := range adj[v] {
				if colors[w] == c {
					ok = false
					break
				}
			}
			if ok {
				colors[v] = c
				if rec(v + 1) {
					return true
				}
				colors[v] = -1
			}
		}
		return false
	}
	return rec(0)
}

// Reduction bundles the Proposition 3 artefacts.
type Reduction struct {
	Input   Graph
	Source  *datagraph.Graph
	Mapping *core.Mapping
	Query   *ree.Query
	From    datagraph.NodeID // start
	To      datagraph.NodeID // fin
}

// VertexID returns the source node id of vertex u.
func VertexID(u int) datagraph.NodeID {
	return datagraph.NodeID(fmt.Sprintf("x%d", u))
}

// Reduce builds the Proposition 3 reduction for the input graph.
func Reduce(g Graph) (*Reduction, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	src := datagraph.New()
	src.MustAddNode("start", datagraph.V("hub"))
	src.MustAddNode("fin", datagraph.V("final"))
	src.MustAddNode("P1", datagraph.V("k1"))
	src.MustAddNode("P2", datagraph.V("k2"))
	src.MustAddNode("P3", datagraph.V("k3"))
	src.MustAddEdge("start", "p", "P1")
	src.MustAddEdge("P1", "p", "P2")
	src.MustAddEdge("P2", "p", "P3")
	src.MustAddEdge("P3", "p", "start")
	for u := 0; u < g.N; u++ {
		id := VertexID(u)
		src.MustAddNode(id, datagraph.V(fmt.Sprintf("vert%d", u)))
		src.MustAddEdge("start", "v", id)
		src.MustAddEdge(id, "c", id)
		src.MustAddEdge(id, "f", "fin")
	}
	for _, e := range g.Edges {
		src.MustAddEdge(VertexID(e[0]), "e", VertexID(e[1]))
		src.MustAddEdge(VertexID(e[1]), "e", VertexID(e[0]))
	}
	m := core.NewMapping(
		core.R("v", "v"),
		core.R("e", "e"),
		core.R("f", "f"),
		core.R("p", "p"),
		core.R("c", "c c"),
	)
	q := ree.MustParseQuery("v c (c e c)= c f | p (p (p (p v c)!=)!=)!= c f")
	return &Reduction{Input: g, Source: src, Mapping: m, Query: q, From: "start", To: "fin"}, nil
}

// CertainNon3Colorable runs the exact certain-answer oracle on the
// reduction: it returns true iff (start, fin) is a certain answer, which by
// Proposition 3 holds iff the input is not 3-colourable. Exponential in the
// number of vertices (one null per vertex), as coNP-hardness demands.
func CertainNon3Colorable(g Graph, opts core.ExactOptions) (bool, error) {
	red, err := Reduce(g)
	if err != nil {
		return false, err
	}
	if opts.MaxNulls == 0 {
		opts.MaxNulls = g.N
	}
	mat := core.NewMaterialization(core.MustCompile(red.Mapping), red.Source)
	return mat.CertainExactPair(context.TODO(), red.Query, red.From, red.To, opts)
}

// ProperColouringSolution builds the adversary's solution for a 3-colourable
// graph: the universal solution with each colour null set to the palette
// value of the vertex's colour. It returns an error if the graph is not
// 3-colourable. Used in tests to exhibit the counterexample solution
// explicitly.
func ProperColouringSolution(g Graph) (*datagraph.Graph, error) {
	red, err := Reduce(g)
	if err != nil {
		return nil, err
	}
	colors, ok := colouring(g)
	if !ok {
		return nil, fmt.Errorf("threecol: graph is not 3-colourable")
	}
	mat := core.NewMaterialization(core.MustCompile(red.Mapping), red.Source)
	u, err := mat.UniversalCtx(context.TODO())
	if err != nil {
		return nil, err
	}
	palette := []datagraph.Value{datagraph.V("k1"), datagraph.V("k2"), datagraph.V("k3")}
	// Null n_u sits on the c·c detour of vertex u: find it via the c-edge
	// out of x_u.
	assign := make(map[datagraph.NodeID]datagraph.Value)
	snap := u.Freeze()
	if c, ok := snap.LabelID("c"); ok {
		for v := 0; v < g.N; v++ {
			xi, _ := u.IndexOf(VertexID(v))
			for _, to := range snap.OutLabeled(xi, c) {
				if n := u.Node(int(to)); n.IsNullNode() {
					assign[n.ID] = palette[colors[v]]
				}
			}
		}
	}
	return u.Specialize(assign), nil
}

func colouring(g Graph) ([]int, bool) {
	adj := make([][]int, g.N)
	for _, e := range g.Edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	colors := make([]int, g.N)
	for i := range colors {
		colors[i] = -1
	}
	var rec func(v int) bool
	rec = func(v int) bool {
		if v == g.N {
			return true
		}
		for c := 0; c < 3; c++ {
			ok := true
			for _, w := range adj[v] {
				if colors[w] == c {
					ok = false
					break
				}
			}
			if ok {
				colors[v] = c
				if rec(v + 1) {
					return true
				}
				colors[v] = -1
			}
		}
		return false
	}
	if !rec(0) {
		return nil, false
	}
	return colors, true
}
