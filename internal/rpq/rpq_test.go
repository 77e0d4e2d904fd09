package rpq

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/datagraph"
)

// social builds the running example: a small social graph.
//
//	ann -knows-> bob -knows-> carl -knows-> ann
//	ann -likes-> carl
func social(t *testing.T) *datagraph.Graph {
	t.Helper()
	g := datagraph.New()
	for _, n := range []struct {
		id, v string
	}{{"ann", "30"}, {"bob", "25"}, {"carl", "30"}} {
		g.MustAddNode(datagraph.NodeID(n.id), datagraph.V(n.v))
	}
	g.MustAddEdge("ann", "knows", "bob")
	g.MustAddEdge("bob", "knows", "carl")
	g.MustAddEdge("carl", "knows", "ann")
	g.MustAddEdge("ann", "likes", "carl")
	return g
}

func pairsAsIDs(t *testing.T, g *datagraph.Graph, s *datagraph.PairSet) [][2]string {
	t.Helper()
	var out [][2]string
	for _, p := range s.IDPairs(g) {
		out = append(out, [2]string{string(p.From.ID), string(p.To.ID)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

func TestAtomicRPQ(t *testing.T) {
	g := social(t)
	got := pairsAsIDs(t, g, Atomic("likes").Eval(g))
	want := [][2]string{{"ann", "carl"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("likes(G) = %v, want %v", got, want)
	}
}

func TestWordRPQ(t *testing.T) {
	g := social(t)
	got := pairsAsIDs(t, g, Word("knows", "knows").Eval(g))
	want := [][2]string{{"ann", "carl"}, {"bob", "ann"}, {"carl", "bob"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("knows·knows(G) = %v, want %v", got, want)
	}
}

func TestRegexRPQ(t *testing.T) {
	g := social(t)
	// knows+ reaches everything on the cycle.
	q := MustParse("knows+")
	got := q.Eval(g)
	if got.Len() != 9 {
		t.Fatalf("knows+ should connect all 9 ordered pairs, got %d", got.Len())
	}
	// knows* also includes the empty path (v, v) — same 9 here since the
	// cycle already gives all pairs.
	q2 := MustParse("knows* likes")
	got2 := pairsAsIDs(t, g, q2.Eval(g))
	want := [][2]string{{"ann", "carl"}, {"bob", "carl"}, {"carl", "carl"}}
	if !reflect.DeepEqual(got2, want) {
		t.Fatalf("knows* likes = %v, want %v", got2, want)
	}
}

func TestReachabilityRPQ(t *testing.T) {
	g := datagraph.New()
	g.MustAddNode("a", datagraph.V("1"))
	g.MustAddNode("b", datagraph.V("2"))
	g.MustAddNode("c", datagraph.V("3"))
	g.MustAddEdge("a", "x", "b")
	// c is isolated.
	q := Reachability()
	if q.Kind() != KindReachability {
		t.Fatalf("kind = %v", q.Kind())
	}
	got := pairsAsIDs(t, g, q.Eval(g))
	want := [][2]string{{"a", "a"}, {"a", "b"}, {"b", "b"}, {"c", "c"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Σ* = %v, want %v", got, want)
	}
}

func TestKinds(t *testing.T) {
	cases := []struct {
		expr string
		want Kind
	}{
		{"a", KindAtomic},
		{"a b c", KindWord},
		{".*", KindReachability},
		{"a*", KindRegex},
		{"a|b", KindRegex},
		{"()", KindWord}, // empty word
	}
	for _, c := range cases {
		q := MustParse(c.expr)
		if q.Kind() != c.want {
			t.Errorf("Kind(%q) = %v, want %v", c.expr, q.Kind(), c.want)
		}
	}
	if KindAtomic.String() != "atomic" || KindWord.String() != "word" ||
		KindReachability.String() != "reachability" || KindRegex.String() != "regex" {
		t.Error("Kind.String mismatch")
	}
}

func TestAsWord(t *testing.T) {
	q := Word("a", "b")
	w, ok := q.AsWord()
	if !ok || !reflect.DeepEqual(w, []string{"a", "b"}) {
		t.Fatalf("AsWord = %v, %v", w, ok)
	}
	// Returned slice is a copy.
	w[0] = "mutated"
	w2, _ := q.AsWord()
	if w2[0] != "a" {
		t.Fatal("AsWord leaked internal state")
	}
	if _, ok := MustParse("a*").AsWord(); ok {
		t.Fatal("a* is not a word")
	}
}

func TestEvalFromMatchesEval(t *testing.T) {
	g := social(t)
	for _, expr := range []string{"knows", "knows knows", "knows+", "likes|knows", ".*", "(knows likes?)*"} {
		q := MustParse(expr)
		full := q.Eval(g)
		for u := 0; u < g.NumNodes(); u++ {
			ts := q.EvalFrom(g, u)
			sort.Ints(ts)
			var want []int
			full.Each(func(p datagraph.Pair) {
				if p.From == u {
					want = append(want, p.To)
				}
			})
			sort.Ints(want)
			if !reflect.DeepEqual(ts, want) {
				t.Errorf("expr %q from %d: EvalFrom %v vs Eval %v", expr, u, ts, want)
			}
		}
	}
}

func TestSelfLoopAndEmptyWordQuery(t *testing.T) {
	g := datagraph.New()
	g.MustAddNode("a", datagraph.V("1"))
	g.MustAddEdge("a", "x", "a")
	// ε query returns (v, v) pairs only.
	q := Word()
	got := q.Eval(g)
	if got.Len() != 1 || !got.Has(0, 0) {
		t.Fatalf("ε(G) = %v", got.Sorted())
	}
	// x* on a self-loop: (a, a).
	q2 := MustParse("x*")
	if !q2.Eval(g).Has(0, 0) {
		t.Fatal("x* should match self loop")
	}
}

func TestParseError(t *testing.T) {
	if _, err := Parse("a||"); err == nil {
		t.Fatal("bad expression must fail")
	}
}

func TestEvalOnLargerChain(t *testing.T) {
	// Chain of 100 a-edges: word of length 50 connects i to i+50.
	g := datagraph.New()
	for i := 0; i <= 100; i++ {
		g.MustAddNode(datagraph.NodeID(fmt.Sprintf("c%d", i)), datagraph.V(fmt.Sprintf("%d", i)))
	}
	for i := 0; i < 100; i++ {
		g.MustAddEdge(datagraph.NodeID(fmt.Sprintf("c%d", i)), "a", datagraph.NodeID(fmt.Sprintf("c%d", i+1)))
	}
	labels := make([]string, 50)
	for i := range labels {
		labels[i] = "a"
	}
	q := Word(labels...)
	got := q.Eval(g)
	if got.Len() != 51 {
		t.Fatalf("expected 51 pairs, got %d", got.Len())
	}
	i0, _ := g.IndexOf("c0")
	i50, _ := g.IndexOf("c50")
	if !got.Has(i0, i50) {
		t.Fatal("c0 to c50 missing")
	}
}

// EvalFrom freezes the graph it is given: after SetValue it refreshes
// values only, reusing the topology, and after AddEdge it sees the new edge.
func TestEvalFromFreezes(t *testing.T) {
	g := social(t)
	q := MustParse("knows knows")
	ai, _ := g.IndexOf("ann")
	ci, _ := g.IndexOf("carl")
	if got := q.EvalFrom(g, ai); len(got) != 1 || got[0] != ci {
		t.Fatalf("EvalFrom(ann) = %v, want [carl]", got)
	}
	g.SetValue(ci, datagraph.V("99"))
	if got := q.EvalFrom(g, ai); len(got) != 1 || got[0] != ci || g.Snapshot() == nil {
		t.Fatalf("after SetValue: EvalFrom(ann) = %v, frozen %v", got, g.Snapshot() != nil)
	}
	if s := g.Snapshot(); s.Value(ci) != datagraph.V("99") {
		t.Fatal("the refreshed snapshot must carry the new value")
	}
	if full, delta := g.SnapshotBuilds(); full != 1 || delta != 0 {
		t.Fatalf("a SetValue-only change must reuse the topology: %d full, %d delta builds", full, delta)
	}
	g.MustAddEdge("ann", "knows", "ann")
	got := q.EvalFrom(g, ai)
	sort.Ints(got)
	bi, _ := g.IndexOf("bob")
	if want := []int{ai, bi, ci}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after AddEdge: EvalFrom(ann) = %v, want %v", got, want)
	}
}

// Concurrent EvalFrom calls on one shared, never-frozen graph each see the
// answers of the frozen graph (run with -race).
func TestConcurrentEvalFromOnUnfrozenGraph(t *testing.T) {
	base := randomGraph(5, 30, 90)
	for _, qs := range []string{"a b", "(a | b b)* a", ".*"} {
		q := MustParse(qs)
		rows := make([][]int, base.NumNodes())
		q.Eval(base.Clone()).Each(func(p datagraph.Pair) { rows[p.From] = append(rows[p.From], p.To) })
		for _, row := range rows {
			sort.Ints(row)
		}
		g := base.Clone()
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for u, row := range rows {
					got := q.EvalFrom(g, u)
					sort.Ints(got)
					if fmt.Sprint(got) != fmt.Sprint(row) {
						t.Errorf("%q: EvalFrom(%d) = %v, want %v", qs, u, got, row)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}
