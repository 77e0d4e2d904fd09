package gxpath

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/datagraph"
)

// A reference evaluator of Figure 1, written for the test from the figure
// alone: relations are sets of node pairs, the graph is read only through
// g.Edges() and g.Value, and every operator is its set-theoretic definition.
// It shares no code with the dense bitmap evaluator of eval.go.

type pairs map[[2]int]bool

func randomDataGraph(seed int64, n, e int) *datagraph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := datagraph.New()
	for i := 0; i < n; i++ {
		v := datagraph.V(fmt.Sprintf("v%d", rng.Intn(3)))
		if rng.Intn(5) == 0 {
			v = datagraph.Null()
		}
		g.MustAddNode(datagraph.NodeID(fmt.Sprintf("n%d", i)), v)
	}
	for k := 0; k < e; k++ {
		from := rng.Intn(n)
		to := rng.Intn(n)
		label := []string{"a", "b"}[rng.Intn(2)]
		g.MustAddEdge(datagraph.NodeID(fmt.Sprintf("n%d", from)), label,
			datagraph.NodeID(fmt.Sprintf("n%d", to)))
	}
	return g
}

func refIdentity(n int) pairs {
	out := pairs{}
	for v := 0; v < n; v++ {
		out[[2]int{v, v}] = true
	}
	return out
}

func refCompose(r, s pairs) pairs {
	out := pairs{}
	for p := range r {
		for q := range s {
			if p[1] == q[0] {
				out[[2]int{p[0], q[1]}] = true
			}
		}
	}
	return out
}

func refUnion(r, s pairs) pairs {
	out := pairs{}
	for p := range r {
		out[p] = true
	}
	for p := range s {
		out[p] = true
	}
	return out
}

// refStar is the reflexive-transitive closure of r, by squaring to a
// fixpoint.
func refStar(r pairs, n int) pairs {
	out := refUnion(refIdentity(n), r)
	for {
		next := refUnion(out, refCompose(out, out))
		if len(next) == len(out) {
			return out
		}
		out = next
	}
}

func refLabel(g *datagraph.Graph, label string, inverse bool) pairs {
	out := pairs{}
	for _, e := range g.Edges() {
		if e.Label != label {
			continue
		}
		from, _ := g.IndexOf(e.From)
		to, _ := g.IndexOf(e.To)
		if inverse {
			from, to = to, from
		}
		out[[2]int{from, to}] = true
	}
	return out
}

// refData keeps the pairs of r whose endpoint values compare equal (neq
// false) or different (neq true) under mode.
func refData(g *datagraph.Graph, r pairs, mode datagraph.CompareMode, neq bool) pairs {
	out := pairs{}
	for p := range r {
		dv, dw := g.Value(p[0]), g.Value(p[1])
		if (neq && mode.Neq(dv, dw)) || (!neq && mode.Eq(dv, dw)) {
			out[p] = true
		}
	}
	return out
}

// refPath is [[α]]_G.
func refPath(g *datagraph.Graph, p PathExpr, mode datagraph.CompareMode) pairs {
	n := g.NumNodes()
	switch t := p.(type) {
	case PEps:
		return refIdentity(n)
	case PLabel:
		return refLabel(g, t.Label, t.Inverse)
	case PStar:
		return refStar(refLabel(g, t.Label, t.Inverse), n)
	case PConcat:
		return refCompose(refPath(g, t.L, mode), refPath(g, t.R, mode))
	case PUnion:
		return refUnion(refPath(g, t.L, mode), refPath(g, t.R, mode))
	case PEq:
		return refData(g, refPath(g, t.Inner, mode), mode, false)
	case PNeq:
		return refData(g, refPath(g, t.Inner, mode), mode, true)
	case PTest:
		out := pairs{}
		for v, ok := range refNode(g, t.Cond, mode) {
			if ok {
				out[[2]int{v, v}] = true
			}
		}
		return out
	case PNeg:
		inner, out := refPath(g, t.Inner, mode), pairs{}
		for v := 0; v < n; v++ {
			for w := 0; w < n; w++ {
				if !inner[[2]int{v, w}] {
					out[[2]int{v, w}] = true
				}
			}
		}
		return out
	case PAnd:
		l, r, out := refPath(g, t.L, mode), refPath(g, t.R, mode), pairs{}
		for p := range l {
			if r[p] {
				out[p] = true
			}
		}
		return out
	case PStarAny:
		return refStar(refPath(g, t.Inner, mode), n)
	}
	panic(fmt.Sprintf("refPath: unknown path expression %T", p))
}

// refNode is [[φ]]_G as a membership vector.
func refNode(g *datagraph.Graph, n NodeExpr, mode datagraph.CompareMode) []bool {
	out := make([]bool, g.NumNodes())
	switch t := n.(type) {
	case NNot:
		for v, ok := range refNode(g, t.Inner, mode) {
			out[v] = !ok
		}
	case NAnd:
		l, r := refNode(g, t.L, mode), refNode(g, t.R, mode)
		for v := range out {
			out[v] = l[v] && r[v]
		}
	case NOr:
		l, r := refNode(g, t.L, mode), refNode(g, t.R, mode)
		for v := range out {
			out[v] = l[v] || r[v]
		}
	case NExists:
		for p := range refPath(g, t.Path, mode) {
			out[p[0]] = true
		}
	default:
		panic(fmt.Sprintf("refNode: unknown node expression %T", n))
	}
	return out
}

// TestDensePathEvalMatchesSparse checks the dense bitmap evaluator against
// the sparse set-of-pairs reference of Figure 1, on random graphs with null
// nodes, under both comparison modes, for core and regular operators.
func TestDensePathEvalMatchesSparse(t *testing.T) {
	paths := []string{
		"a",
		"a-",
		"a*",
		"a- b",
		"(a b)=",
		"(a- b)!=",
		"a | b a",
		"e",
		"[<a b>] a",
		"~a",
		"a & (a b | a)",
		"(a b)*",
		"~(a*) & b-",
	}
	nodes := []string{
		"<a>",
		"<a (a- b)=>",
		"!<b b>",
		"<a> & !<b->",
		"<~(a b)>",
	}
	for seed := int64(0); seed < 10; seed++ {
		g := randomDataGraph(seed, 3+int(seed), 5+int(seed*4)%28)
		for _, mode := range []datagraph.CompareMode{datagraph.MarkedNulls, datagraph.SQLNulls} {
			for _, ps := range paths {
				p := MustParsePath(ps)
				got := EvalPath(g, p, mode)
				want := datagraph.NewPairSet()
				for q := range refPath(g, p, mode) {
					want.Add(q[0], q[1])
				}
				if !got.Equal(want) {
					t.Fatalf("seed %d path %q mode %v: dense %v, reference %v",
						seed, ps, mode, got.Sorted(), want.Sorted())
				}
			}
			for _, ns := range nodes {
				nx := MustParseNode(ns)
				got, want := EvalNode(g, nx, mode), refNode(g, nx, mode)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("seed %d node expr %q mode %v: disagree at node %d", seed, ns, mode, i)
					}
				}
			}
		}
	}
}
