package rpq

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/datagraph"
)

// Every query runs on ra's kernel over a pooled scratch, so one scratch
// outlives the call, the snapshot and the query it was first sized for.
// These tests hold one scratch across those changes and compare every
// result with the set-semantics oracle of crossval_test.go, which shares no
// state with the kernel.

// scratchKinds has one query per shape of the zero-register kernel.
var scratchKinds = []struct{ kernel, query string }{
	{"product", "(a | b b)* a"},
	{"word", "a b a"},
	{"reachability", ".*"},
}

// evalOn runs q from every start node of g's snapshot on sc.
func evalOn(q *Query, g *datagraph.Graph, sc *datagraph.Scratch) *datagraph.PairSet {
	out := datagraph.NewPairSet()
	q.auto.EvalRangeOn(g, 0, g.NumNodes(), datagraph.MarkedNulls, sc, out.Add)
	return out
}

// TestScratchEpochWraparound: a search's stamps are its epoch, and the
// epochs after a uint32 wrap repeat the first ones. A pass on a fresh
// scratch leaves it full of those low stamps; the next pass starts just
// below the wrap. Started from MaxUint32 it gives every start node the very
// epoch it had in the pass before, so that whatever the wrap failed to clear
// reads as already visited.
func TestScratchEpochWraparound(t *testing.T) {
	g := randomGraph(7, 40, 120)
	for _, k := range scratchKinds {
		q := MustParse(k.query)
		want := oracleEval(g, q)
		if want.Len() == 0 {
			t.Fatalf("%s: no answers to lose", k.kernel)
		}
		for _, epoch := range []uint32{math.MaxUint32 - 1, math.MaxUint32} {
			sc := new(datagraph.Scratch)
			if got := evalOn(q, g, sc); !got.Equal(want) {
				t.Fatalf("%s kernel, fresh scratch: %v, want %v", k.kernel, got.Sorted(), want.Sorted())
			}
			sc.SetEpoch(epoch)
			if got := evalOn(q, g, sc); !got.Equal(want) {
				t.Fatalf("%s kernel from epoch %d: %v, want %v", k.kernel, epoch, got.Sorted(), want.Sorted())
			}
		}
	}
}

// TestScratchReuseAcrossSnapshotsAndQueries: a scratch sized for snapshot A
// and a small automaton serves a larger delta-frozen snapshot B and an
// automaton with more states — it grows instead of indexing past what A
// needed — and then A's query again.
func TestScratchReuseAcrossSnapshotsAndQueries(t *testing.T) {
	g := randomGraph(11, 24, 200) // edge-heavy, so the burst below stays a delta
	small, large := MustParse("a b"), MustParse("(a b | b a a)* (a | b b) a*")
	if small.auto.NumStates >= large.auto.NumStates {
		t.Fatalf("want a larger automaton: %d vs %d states", small.auto.NumStates, large.auto.NumStates)
	}
	sc := new(datagraph.Scratch)
	if got, want := evalOn(small, g, sc), oracleEval(g, small); !got.Equal(want) {
		t.Fatalf("snapshot A: %v, want %v", got.Sorted(), want.Sorted())
	}

	a := g.Snapshot()
	n := g.NumNodes()
	for i := 0; i < n/2; i++ {
		g.MustAddNode(datagraph.NodeID(fmt.Sprintf("m%d", i)), datagraph.V("w"))
		g.MustAddEdge(datagraph.NodeID(fmt.Sprintf("n%d", i%n)), "a", datagraph.NodeID(fmt.Sprintf("m%d", i)))
		g.MustAddEdge(datagraph.NodeID(fmt.Sprintf("m%d", i)), "b", datagraph.NodeID(fmt.Sprintf("n%d", (i+5)%n)))
	}
	if b := g.Freeze(); b == a || b.NumNodes() != n+n/2 {
		t.Fatalf("append burst did not produce a larger snapshot")
	}
	if _, delta := g.SnapshotBuilds(); delta == 0 {
		t.Fatal("snapshot B was not delta-frozen")
	}
	for _, q := range []*Query{large, small, MustParse(".*")} {
		if got, want := evalOn(q, g, sc), oracleEval(g, q); !got.Equal(want) {
			t.Fatalf("snapshot B, query %v: %v, want %v", q, got.Sorted(), want.Sorted())
		}
	}
}
