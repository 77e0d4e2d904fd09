package core

import (
	"strconv"
	"strings"

	"repro/internal/datagraph"
)

// This file implements the solution-building procedures of Sections 7 and 8:
// dom(M, Gs), universal solutions populated with SQL-null nodes, and least
// informative solutions populated with fresh distinct data values.

// throwaway builds a single-use materialization for the legacy free
// functions, which recompute everything per call by design.
func throwaway(m *Mapping, gs *datagraph.Graph) (*Materialization, error) {
	cm, err := Compile(m)
	if err != nil {
		return nil, err
	}
	return NewMaterialization(cm, gs), nil
}

// Dom computes dom(M, Gs): all source nodes appearing in some query result
// q(Gs) for (q, q′) ∈ M, in dense-index order of Gs. An invalid mapping
// (nil, or nil rule queries) panics, matching the pre-session behavior of
// evaluating a nil query.
func Dom(m *Mapping, gs *datagraph.Graph) []datagraph.Node {
	mat, err := throwaway(m, gs)
	if err != nil {
		panic(err)
	}
	return mat.DomNodes()
}

// DomIDs returns the ids of Dom as a set.
func DomIDs(m *Mapping, gs *datagraph.Graph) map[datagraph.NodeID]struct{} {
	mat, err := throwaway(m, gs)
	if err != nil {
		panic(err)
	}
	return mat.DomIDs()
}

// freshPrefix returns base followed by the fewest underscores that make it
// a prefix of key(n) for no node n of g, so that names built on it cannot
// collide with g's ids (key idOf) or values (key rawValueOf). Only a run of
// underscores right after base can push the answer further, so one pass
// measures the longest such run.
func freshPrefix(g *datagraph.Graph, base string, key func(datagraph.Node) string) string {
	longest := -1
	for i := 0; i < g.NumNodes(); i++ {
		if rest, ok := strings.CutPrefix(key(g.Node(i)), base); ok {
			longest = max(longest, len(rest)-len(strings.TrimLeft(rest, "_")))
		}
	}
	return base + strings.Repeat("_", longest+1)
}

func idOf(n datagraph.Node) string { return string(n.ID) }

func rawValueOf(n datagraph.Node) string {
	if n.IsNullNode() {
		return ""
	}
	return n.Value.Raw()
}

// freshValues returns n data values distinct from every value of g and
// from each other.
func freshValues(g *datagraph.Graph, base string, n int) []datagraph.Value {
	out := make([]datagraph.Value, n)
	freshNames(freshPrefix(g, base, rawValueOf), n, func(j int, v string) { out[j] = datagraph.V(v) })
	return out
}

// freshNames cuts the n names prefix1 … prefixN out of one backing string
// and hands name j+1 to set(j, …).
func freshNames(prefix string, n int, set func(j int, name string)) {
	var b strings.Builder
	b.Grow(n * (len(prefix) + len(strconv.Itoa(n))))
	var num [20]byte
	for j := 1; j <= n; j++ {
		b.WriteString(prefix)
		b.Write(strconv.AppendInt(num[:0], int64(j), 10))
	}
	all := b.String()
	for j, at, width, tens := 1, 0, 1, 10; j <= n; j++ {
		if j == tens {
			width, tens = width+1, tens*10
		}
		set(j-1, all[at:at+len(prefix)+width])
		at += len(prefix) + width
	}
}

// UniversalSolution builds the Section 7 universal solution for a relational
// GSM: dom(M, Gs) is copied, and for each rule (q, a₁…aₖ) and each pair
// (v, v′) ∈ q(Gs), a path v a₁ n₁ a₂ … aₖ v′ is added whose k−1 intermediate
// nodes are fresh null nodes (value n). It errors with ErrInfinite if the
// mapping is not relational, or with ErrNoSolution if a rule with target ε
// demands v = v′ for a pair with v ≠ v′ (in which case no solution exists at
// all).
func UniversalSolution(m *Mapping, gs *datagraph.Graph) (*datagraph.Graph, error) {
	mat, err := throwaway(m, gs)
	if err != nil {
		return nil, err
	}
	return mat.Universal()
}

// LeastInformativeSolution builds the Section 8 least informative solution:
// identical to the universal solution except that the fresh intermediate
// nodes carry fresh, pairwise distinct data values instead of nulls.
func LeastInformativeSolution(m *Mapping, gs *datagraph.Graph) (*datagraph.Graph, error) {
	mat, err := throwaway(m, gs)
	if err != nil {
		return nil, err
	}
	return mat.LeastInformative()
}

type solutionStyle int

const (
	solutionNulls solutionStyle = iota
	solutionFresh
)

// NullNodes returns the ids of null nodes in a graph (universal-solution
// intermediates).
func NullNodes(g *datagraph.Graph) []datagraph.NodeID {
	var out []datagraph.NodeID
	for _, n := range g.Nodes() {
		if n.IsNullNode() {
			out = append(out, n.ID)
		}
	}
	return out
}
