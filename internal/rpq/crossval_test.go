package rpq

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/datagraph"
	"repro/internal/rex"
)

// The evaluator is checked against two oracles that share no code with it
// and read the graph only through its edge list (g.Edges()):
//
//   - semantics computes e(G) straight from the definition, as sets of node
//     pairs: a letter is its edge relation, concatenation composes, union
//     unites and the stars close reflexively-transitively;
//   - enumeratePairs walks every path up to a length bound and keeps those
//     whose label semantics accepts, read on the label's own path graph,
//     so every pair it finds must be reported.

func randomGraph(seed int64, n, e int) *datagraph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := datagraph.New()
	for i := 0; i < n; i++ {
		g.MustAddNode(datagraph.NodeID(fmt.Sprintf("n%d", i)), datagraph.V(fmt.Sprintf("v%d", i%4)))
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

// oracleEdge is one edge of g with dense endpoints, read from g.Edges().
type oracleEdge struct {
	from, to int
	label    string
}

func oracleEdges(g *datagraph.Graph) []oracleEdge {
	var out []oracleEdge
	for _, e := range g.Edges() {
		from, _ := g.IndexOf(e.From)
		to, _ := g.IndexOf(e.To)
		out = append(out, oracleEdge{from: from, to: to, label: e.Label})
	}
	return out
}

// rel is a binary relation over node indices.
type rel map[[2]int]bool

func identity(n int) rel {
	r := rel{}
	for v := 0; v < n; v++ {
		r[[2]int{v, v}] = true
	}
	return r
}

func compose(r, s rel) rel {
	out := rel{}
	for p := range r {
		for q := range s {
			if p[1] == q[0] {
				out[[2]int{p[0], q[1]}] = true
			}
		}
	}
	return out
}

func union(r, s rel) rel {
	out := rel{}
	for p := range r {
		out[p] = true
	}
	for p := range s {
		out[p] = true
	}
	return out
}

// plus is the transitive closure of r, by squaring to a fixpoint.
func plus(r rel) rel {
	for {
		next := union(r, compose(r, r))
		if len(next) == len(r) {
			return r
		}
		r = next
	}
}

// semantics is e(G) by structural recursion on e.
func semantics(edges []oracleEdge, n int, e rex.Regex) rel {
	switch t := e.(type) {
	case rex.Eps:
		return identity(n)
	case rex.Lit, rex.Any:
		out := rel{}
		for _, ed := range edges {
			if lit, ok := t.(rex.Lit); !ok || lit.Label == ed.label {
				out[[2]int{ed.from, ed.to}] = true
			}
		}
		return out
	case rex.Concat:
		out := identity(n)
		for _, f := range t.Factors {
			out = compose(out, semantics(edges, n, f))
		}
		return out
	case rex.Union:
		out := rel{}
		for _, a := range t.Alts {
			out = union(out, semantics(edges, n, a))
		}
		return out
	case rex.Star:
		return union(identity(n), plus(semantics(edges, n, t.Inner)))
	case rex.Plus:
		return plus(semantics(edges, n, t.Inner))
	case rex.Opt:
		return union(identity(n), semantics(edges, n, t.Inner))
	}
	panic(fmt.Sprintf("semantics: unknown regex %T", e))
}

// oracleEval is e(G) as a PairSet, from semantics.
func oracleEval(g *datagraph.Graph, q *Query) *datagraph.PairSet {
	out := datagraph.NewPairSet()
	for p := range semantics(oracleEdges(g), g.NumNodes(), q.Expr()) {
		out.Add(p[0], p[1])
	}
	return out
}

// enumeratePairs finds all pairs connected by a path of length ≤ maxLen
// whose label is in L(e).
func enumeratePairs(g *datagraph.Graph, e rex.Regex, maxLen int) *datagraph.PairSet {
	edges := oracleEdges(g)
	out := datagraph.NewPairSet()
	var walk func(start, cur int, word []string)
	walk = func(start, cur int, word []string) {
		path := make([]oracleEdge, len(word))
		for i, l := range word {
			path[i] = oracleEdge{from: i, to: i + 1, label: l}
		}
		if semantics(path, len(word)+1, e)[[2]int{0, len(word)}] {
			out.Add(start, cur)
		}
		if len(word) == maxLen {
			return
		}
		for _, e := range edges {
			if e.from == cur {
				walk(start, e.to, append(word, e.label))
			}
		}
	}
	for u := 0; u < g.NumNodes(); u++ {
		walk(u, u, nil)
	}
	return out
}

// crossvalQueries covers every kernel (atomic, word, general regex,
// wildcard, reachability) and labels absent from the graph, whose steps
// the snapshot lowering drops.
var crossvalQueries = []string{
	"a", "a b", "a b a", "a|b", "a* b", "(a b)+", "a?", ". .", ". . .",
	".*", "(a | b)*", "(a | b b)* a", "c", "a c b",
}

func TestEvalCrossValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for seed := int64(0); seed < 12; seed++ {
		g := randomGraph(seed, 1+rng.Intn(10), rng.Intn(20))
		n := g.NumNodes()
		for _, expr := range crossvalQueries {
			q := MustParse(expr)
			got := q.Eval(g)
			if want := oracleEval(g, q); !got.Equal(want) {
				t.Fatalf("seed %d expr %q: eval %v, semantics %v", seed, expr, got.Sorted(), want.Sorted())
			}
			// Completeness w.r.t. bounded enumeration: everything the naive
			// search finds, the evaluator finds.
			if naive := enumeratePairs(g, q.Expr(), 5); !naive.SubsetOf(got) {
				t.Fatalf("seed %d expr %q: evaluator missed pairs: naive %v vs got %v",
					seed, expr, naive.Sorted(), got.Sorted())
			}
			// EvalFrom on an unfrozen copy, one start node at a time, and
			// EvalRange over a sub-range agree with the full result.
			c := g.Clone()
			for u := 0; u < n; u++ {
				from := q.EvalFrom(c, u)
				sort.Ints(from)
				var row []int
				got.Each(func(p datagraph.Pair) {
					if p.From == u {
						row = append(row, p.To)
					}
				})
				sort.Ints(row)
				if fmt.Sprint(from) != fmt.Sprint(row) {
					t.Fatalf("seed %d expr %q: EvalFrom(%d) = %v, want %v", seed, expr, u, from, row)
				}
			}
			lo, hi := n/3, 2*n/3+1
			ranged := datagraph.NewPairSet()
			q.EvalRange(g, lo, hi, ranged.Add)
			want := datagraph.NewPairSet()
			got.Each(func(p datagraph.Pair) {
				if p.From >= lo && p.From < hi {
					want.AddPair(p)
				}
			})
			if !ranged.Equal(want) {
				t.Fatalf("seed %d expr %q: EvalRange[%d,%d) = %v, want %v", seed, expr, lo, hi, ranged.Sorted(), want.Sorted())
			}
		}
	}
}

// Word-query fast path agrees with the generic product construction.
func TestWordFastPathAgreesWithGeneric(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := randomGraph(seed, 10, 20)
		for _, word := range [][]string{{"a"}, {"a", "b"}, {"b", "b", "a"}} {
			fast := Word(word...).Eval(g)
			// Force the generic path by wrapping in a union with an
			// impossible branch (kind becomes KindRegex).
			expr := ""
			for i, l := range word {
				if i > 0 {
					expr += " "
				}
				expr += l
			}
			generic := MustParse(expr + "|zz zz zz zz")
			if generic.Kind() != KindRegex {
				t.Fatal("expected generic kind")
			}
			slow := generic.Eval(g)
			if !fast.Equal(slow) {
				t.Fatalf("seed %d word %v: fast %v vs generic %v",
					seed, word, fast.Sorted(), slow.Sorted())
			}
		}
	}
}

// Reachability fast path agrees with the star-of-wildcard regex.
func TestReachabilityFastPathAgrees(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := randomGraph(seed, 10, 18)
		fast := Reachability().Eval(g)
		slow := MustParse(".*|zz zz").Eval(g) // generic kind
		if !fast.Equal(slow) {
			t.Fatalf("seed %d: reachability fast path diverges", seed)
		}
	}
}
