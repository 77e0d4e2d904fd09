package ree

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/datagraph"
)

// Cross-validation of the register-automaton graph evaluator against an
// oracle that shares no code with it: enumerate every path of the graph up
// to a length bound, reading the graph only through g.Edges(), and keep the
// pairs whose data path the direct matcher (MatchDirect, a recursive
// reading of the paper's semantics) accepts. Graph product vs. per-path
// membership, end to end.

// randomGraph builds a random graph over labels a and b; one node in
// nullEvery (0: none) is null-valued, so the SQL-null special cases of the
// interned condition evaluator are exercised.
func randomGraph(seed int64, n, e, nullEvery int) *datagraph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := datagraph.New()
	for i := 0; i < n; i++ {
		v := datagraph.V(fmt.Sprintf("v%d", rng.Intn(3)))
		if nullEvery > 0 && rng.Intn(nullEvery) == 0 {
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

// enumerate finds all pairs connected by a path of length ≤ maxLen whose
// data path the direct matcher accepts under mode.
func enumerate(g *datagraph.Graph, e Expr, mode datagraph.CompareMode, maxLen int) *datagraph.PairSet {
	type edge struct {
		from, to int
		label    string
	}
	var edges []edge
	for _, ed := range g.Edges() {
		from, _ := g.IndexOf(ed.From)
		to, _ := g.IndexOf(ed.To)
		edges = append(edges, edge{from: from, to: to, label: ed.Label})
	}
	out := datagraph.NewPairSet()
	var walk func(nodes []int, labels []string)
	walk = func(nodes []int, labels []string) {
		vals := make([]datagraph.Value, len(nodes))
		for i, n := range nodes {
			vals[i] = g.Value(n)
		}
		if MatchDirect(e, datagraph.NewDataPath(vals, labels), mode) {
			out.Add(nodes[0], nodes[len(nodes)-1])
		}
		if len(labels) == maxLen {
			return
		}
		cur := nodes[len(nodes)-1]
		for _, ed := range edges {
			if ed.from == cur {
				walk(append(nodes, ed.to), append(labels, ed.label))
			}
		}
	}
	for u := 0; u < g.NumNodes(); u++ {
		walk([]int{u}, nil)
	}
	return out
}

var modes = []datagraph.CompareMode{datagraph.MarkedNulls, datagraph.SQLNulls}

func TestGraphEvalCrossValidation(t *testing.T) {
	// Expressions whose matches fit in the enumeration bound, so bounded
	// enumeration is exact: checked for equality. (c)= names a label absent
	// from every graph, whose transitions the snapshot lowering drops.
	bounded := []string{"a", "a=", "a!=", "(a)=", "(a b)=", "(a b)!=", "a b a",
		"(a (b a)=)!=", "(a (b)!=)= | b", "(c)=", "a c b"}
	// Recursive expressions: every enumerated pair must be reported.
	recursive := []string{"(a=)+", ".* (.+)= .*", "(a|b)+", "(a+)= b*", "((a | b)=)+"}
	const maxLen = 4
	for seed := int64(0); seed < 10; seed++ {
		g := randomGraph(seed, 3+int(seed%6), 4+int(seed*3)%16, 4*int(seed%2))
		n := g.NumNodes()
		for _, mode := range modes {
			for i, expr := range append(bounded, recursive...) {
				e := MustParse(expr)
				q := New(e)
				got := q.Eval(g, mode)
				naive := enumerate(g, e, mode, maxLen)
				if i < len(bounded) && !got.Equal(naive) {
					t.Fatalf("seed %d expr %q mode %v: eval %v vs enumeration %v",
						seed, expr, mode, got.Sorted(), naive.Sorted())
				}
				if !naive.SubsetOf(got) {
					t.Fatalf("seed %d expr %q mode %v: evaluator missed enumerated pairs %v, got %v",
						seed, expr, mode, naive.Sorted(), got.Sorted())
				}
				// EvalFrom on an unfrozen copy, one start node at a time, and
				// EvalRange over a sub-range agree with the full result.
				c := g.Clone()
				for u := 0; u < n; u++ {
					from := q.EvalFrom(c, u, mode)
					sort.Ints(from)
					var row []int
					got.Each(func(p datagraph.Pair) {
						if p.From == u {
							row = append(row, p.To)
						}
					})
					sort.Ints(row)
					if fmt.Sprint(from) != fmt.Sprint(row) {
						t.Fatalf("seed %d expr %q mode %v: EvalFrom(%d) = %v, want %v", seed, expr, mode, u, from, row)
					}
				}
				lo, hi := n/3, 2*n/3+1
				ranged, want := datagraph.NewPairSet(), datagraph.NewPairSet()
				q.EvalRange(g, lo, hi, mode, ranged.Add)
				got.Each(func(p datagraph.Pair) {
					if p.From >= lo && p.From < hi {
						want.AddPair(p)
					}
				})
				if !ranged.Equal(want) {
					t.Fatalf("seed %d expr %q mode %v: EvalRange[%d,%d) = %v, want %v",
						seed, expr, mode, lo, hi, ranged.Sorted(), want.Sorted())
				}
			}
		}
	}
}

// SQL-null agreement between graph evaluation and per-path matching on a
// graph whose null node sits inside the compared paths.
func TestGraphEvalSQLNullCrossValidation(t *testing.T) {
	g := datagraph.New()
	g.MustAddNode("c1", datagraph.V("x"))
	g.MustAddNode("nu", datagraph.Null())
	g.MustAddNode("c2", datagraph.V("x"))
	g.MustAddEdge("c1", "a", "nu")
	g.MustAddEdge("nu", "a", "c2")
	g.MustAddEdge("c1", "b", "c2")
	for _, expr := range []string{"(a a)=", "a=", "(a a)!=", "b=", "(b)!="} {
		e := MustParse(expr)
		got := New(e).Eval(g, datagraph.SQLNulls)
		if naive := enumerate(g, e, datagraph.SQLNulls, 3); !got.Equal(naive) {
			t.Fatalf("expr %q under SQL nulls: eval %v vs enumeration %v",
				expr, got.Sorted(), naive.Sorted())
		}
	}
}
