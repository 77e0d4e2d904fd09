package ra

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/datagraph"
)

// The kernel runs on pooled scratches, so one scratch outlives the call,
// the snapshot and the automaton it was first sized for. These tests hold
// one scratch across those changes, through every search of the kernel, and
// compare every result with the oracle of oracle_test.go, which keeps its
// own maps.

// loopSameEnds is ((a|b)+)= : any nonempty path whose last value equals its
// first. The loop makes configurations revisit nodes under the same
// register content, which is what the tuple set deduplicates.
func loopSameEnds() *Automaton {
	b := &Builder{}
	s0, s1, s2, s3 := b.State(), b.State(), b.State(), b.State()
	b.Eps(s0, s1, True{}, []int{0})
	b.Letter(s1, s2, "a", false, True{}, nil)
	b.Letter(s1, s2, "b", false, True{}, nil)
	b.Eps(s2, s1, True{}, nil)
	b.Eps(s2, s3, Eq{Reg: 0}, nil)
	return b.Finish(s0, s3)
}

// twoRegisters is a path x·a·y·(a|b)*·z with z ∉ {x, y}: two registers, so
// its configurations are wider than loopSameEnds'.
func twoRegisters() *Automaton {
	b := &Builder{}
	s0, s1, s2, s3, s4 := b.State(), b.State(), b.State(), b.State(), b.State()
	b.Eps(s0, s1, True{}, []int{0})
	b.Letter(s1, s2, "a", false, True{}, []int{1})
	b.Letter(s2, s3, "", true, True{}, nil)
	b.Eps(s3, s2, True{}, nil)
	b.Eps(s3, s4, And{L: Neq{Reg: 0}, R: Neq{Reg: 1}}, nil)
	return b.Finish(s0, s4)
}

// seq concatenates built fragments.
func seq(b *Builder, fs ...Frag) Frag { return b.Concat(len(fs), func(i int) Frag { return fs[i] }) }

// zeroProduct is the RPQ (a | b b)* a, which takes the zero-register
// product search.
func zeroProduct() *Automaton {
	b := &Builder{}
	alts := []Frag{b.Symbol("a", false), seq(b, b.Symbol("b", false), b.Symbol("b", false))}
	f := seq(b, b.Star(b.Union(2, func(i int) Frag { return alts[i] })), b.Symbol("a", false))
	return b.Finish(f.Start, f.Accept)
}

// zeroWord is the RPQ a b a, which takes the word walk.
func zeroWord() *Automaton {
	b := &Builder{}
	f := seq(b, b.Symbol("a", false), b.Symbol("b", false), b.Symbol("a", false))
	return b.Finish(f.Start, f.Accept)
}

// zeroReach is the RPQ .*, which takes the reachability search.
func zeroReach() *Automaton {
	b := &Builder{}
	f := b.Star(b.Symbol("", true))
	return b.Finish(f.Start, f.Accept)
}

// scratchInputs has automata for every search of the kernel.
func scratchInputs(t *testing.T) map[string]*Automaton {
	t.Helper()
	in := map[string]*Automaton{
		"loop": loopSameEnds(), "two registers": twoRegisters(),
		"product": zeroProduct(), "word": zeroWord(), "reachability": zeroReach(),
	}
	for name, want := range map[string]shape{"product": shapeProduct, "word": shapeWord, "reachability": shapeReach} {
		if got := in[name].zero; got == nil || got.shape != want {
			t.Fatalf("%s: not the zero-register search it stands for", name)
		}
	}
	return in
}

func valuedGraph(seed int64, n, e int) *datagraph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := datagraph.New()
	for i := 0; i < n; i++ {
		val := datagraph.V(fmt.Sprint(rng.Intn(5)))
		if i%11 == 10 {
			val = datagraph.Null()
		}
		g.MustAddNode(datagraph.NodeID(fmt.Sprintf("n%d", i)), val)
	}
	for k := 0; k < e; k++ {
		g.MustAddEdge(datagraph.NodeID(fmt.Sprintf("n%d", rng.Intn(n))), []string{"a", "b"}[rng.Intn(2)],
			datagraph.NodeID(fmt.Sprintf("n%d", rng.Intn(n))))
	}
	return g
}

// evalOn runs a from every start node of g's snapshot on sc.
func evalOn(a *Automaton, g *datagraph.Graph, sc *datagraph.Scratch) *datagraph.PairSet {
	p := a.program(g.Freeze())
	sc.Resize(a.scratchSize(p))
	out := datagraph.NewPairSet()
	a.run(p, 0, g.NumNodes(), datagraph.SQLNulls, sc, out.Add)
	return out
}

// TestScratchEpochWraparound: the slots of the tuple table and the accepted
// marks are stamped with the search's epoch, and the epochs after a uint32
// wrap repeat the first ones. A pass on a fresh scratch leaves those low
// stamps behind; the next pass starts just below the wrap — from MaxUint32
// every start node gets the very epoch it had before, so a slot the wrap
// failed to clear reads as holding a configuration of the current search.
func TestScratchEpochWraparound(t *testing.T) {
	g := valuedGraph(3, 40, 120)
	for name, a := range scratchInputs(t) {
		want := oracleEval(a, g, datagraph.SQLNulls)
		if want.Len() == 0 {
			t.Fatalf("%s: no answers to lose", name)
		}
		for _, epoch := range []uint32{math.MaxUint32 - 1, math.MaxUint32} {
			sc := new(datagraph.Scratch)
			if got := evalOn(a, g, sc); !got.Equal(want) {
				t.Fatalf("%s, fresh scratch: %v, want %v", name, got.Sorted(), want.Sorted())
			}
			sc.SetEpoch(epoch)
			if got := evalOn(a, g, sc); !got.Equal(want) {
				t.Fatalf("%s from epoch %d: %v, want %v", name, epoch, got.Sorted(), want.Sorted())
			}
		}
	}
}

// TestScratchReuseAcrossSnapshotsAndAutomata: a scratch sized for snapshot A
// and one-register configurations serves a larger delta-frozen snapshot B,
// two-register configurations and every zero-register search, then the
// first automaton again.
func TestScratchReuseAcrossSnapshotsAndAutomata(t *testing.T) {
	g := valuedGraph(5, 24, 200) // edge-heavy, so the burst below stays a delta
	in := scratchInputs(t)
	sc := new(datagraph.Scratch)
	if got, want := evalOn(in["loop"], g, sc), oracleEval(in["loop"], g, datagraph.SQLNulls); !got.Equal(want) {
		t.Fatalf("snapshot A: %v, want %v", got.Sorted(), want.Sorted())
	}

	n := g.NumNodes()
	for i := 0; i < n/2; i++ {
		g.MustAddNode(datagraph.NodeID(fmt.Sprintf("m%d", i)), datagraph.V(fmt.Sprint(i%5)))
		g.MustAddEdge(datagraph.NodeID(fmt.Sprintf("n%d", i)), "a", datagraph.NodeID(fmt.Sprintf("m%d", i)))
		g.MustAddEdge(datagraph.NodeID(fmt.Sprintf("m%d", i)), "b", datagraph.NodeID(fmt.Sprintf("n%d", (i+5)%n)))
	}
	g.Freeze()
	if _, delta := g.SnapshotBuilds(); delta == 0 {
		t.Fatal("snapshot B was not delta-frozen")
	}
	for _, name := range []string{"two registers", "product", "word", "reachability", "loop"} {
		a := in[name]
		if got, want := evalOn(a, g, sc), oracleEval(a, g, datagraph.SQLNulls); !got.Equal(want) {
			t.Fatalf("snapshot B, %s: %v, want %v", name, got.Sorted(), want.Sorted())
		}
	}
}
