package ra

import (
	"sort"
	"testing"

	"repro/internal/datagraph"
)

// customCond is an externally-defined condition: the fast interned-id
// engine cannot evaluate it, so automata containing it take the generic
// string-key path.
type customCond struct{ reg int }

func (c customCond) Eval(regs []datagraph.Value, set []bool, d datagraph.Value, mode datagraph.CompareMode) bool {
	return set[c.reg] && mode.Eq(regs[c.reg], d)
}
func (c customCond) String() string { return "custom" }

// buildSameEndsSlow mirrors buildSameEnds but forces the slow path in two
// different ways.
func buildSameEndsCustomCond() *Automaton {
	b := &Builder{}
	s0, s1, s2, s3 := b.State(), b.State(), b.State(), b.State()
	b.Eps(s0, s1, True{}, []int{0})
	b.Letter(s1, s2, "a", false, True{}, nil)
	b.Eps(s2, s3, customCond{reg: 0}, nil)
	return b.Finish(s0, s3)
}

func buildSameEndsManyRegs() *Automaton {
	b := &Builder{}
	s0, s1, s2, s3 := b.State(), b.State(), b.State(), b.State()
	// Register 9 pushes NumRegs beyond the fast-path limit of 8.
	b.Eps(s0, s1, True{}, []int{9})
	b.Letter(s1, s2, "a", false, True{}, nil)
	b.Eps(s2, s3, Eq{Reg: 9}, nil)
	return b.Finish(s0, s3)
}

func TestSlowPathAgreesWithFastPath(t *testing.T) {
	fast := buildSameEnds(false)
	if !fast.fastOK() {
		t.Fatal("reference automaton should take the fast path")
	}
	for name, slow := range map[string]*Automaton{
		"custom-cond": buildSameEndsCustomCond(),
		"many-regs":   buildSameEndsManyRegs(),
	} {
		if slow.fastOK() {
			t.Fatalf("%s: expected the slow path", name)
		}
		paths := []datagraph.DataPath{
			dp([]string{"1", "1"}, "a"),
			dp([]string{"1", "2"}, "a"),
			dp([]string{"1", "1"}, "b"),
			dp([]string{"1"}),
			datagraph.NewDataPath([]datagraph.Value{datagraph.Null(), datagraph.Null()}, []string{"a"}),
		}
		for _, w := range paths {
			for _, mode := range []datagraph.CompareMode{datagraph.MarkedNulls, datagraph.SQLNulls} {
				if got, want := slow.MatchDataPath(w, mode), fast.MatchDataPath(w, mode); got != want {
					t.Errorf("%s: MatchDataPath(%v, %v) = %v, want %v", name, w, mode, got, want)
				}
			}
		}
	}
}

func TestSlowPathGraphEvaluation(t *testing.T) {
	g := datagraph.New()
	g.MustAddNode("s", v("7"))
	g.MustAddNode("good", v("7"))
	g.MustAddNode("bad", v("8"))
	g.MustAddEdge("s", "a", "good")
	g.MustAddEdge("s", "a", "bad")
	fast := buildSameEnds(false)
	si, _ := g.IndexOf("s")
	want := fast.EvalFrom(g, si, datagraph.MarkedNulls)
	sort.Ints(want)
	for name, slow := range map[string]*Automaton{
		"custom-cond": buildSameEndsCustomCond(),
		"many-regs":   buildSameEndsManyRegs(),
	} {
		got := slow.EvalFrom(g, si, datagraph.MarkedNulls)
		sort.Ints(got)
		if len(got) != len(want) {
			t.Fatalf("%s: EvalFrom = %v, want %v", name, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: EvalFrom = %v, want %v", name, got, want)
			}
		}
		// Cycle termination on the slow path too.
		g2 := datagraph.New()
		g2.MustAddNode("x", v("1"))
		g2.MustAddEdge("x", "a", "x")
		_ = slow.EvalFrom(g2, 0, datagraph.MarkedNulls) // must terminate
	}
}

// AnyLabel handling through the slow path. Note: external Cond types are
// invisible to the Builder's register inference, so the register must be
// established by a store somewhere in the automaton.
func TestSlowPathLabelHandling(t *testing.T) {
	b := &Builder{}
	s0, sMid, s1 := b.State(), b.State(), b.State()
	b.Eps(s0, sMid, True{}, []int{0})
	b.Letter(sMid, s1, "", true, customCond{reg: 0}, nil)
	a := b.Finish(s0, s1)
	if a.fastOK() {
		t.Fatal("custom condition should force the slow path")
	}
	// AnyLabel matches any label; condition is d2 = d1 via the custom cond.
	if !a.MatchDataPath(dp([]string{"1", "1"}, "zzz"), datagraph.MarkedNulls) {
		t.Fatal("any-label with matching values should accept")
	}
	if a.MatchDataPath(dp([]string{"1", "2"}, "zzz"), datagraph.MarkedNulls) {
		t.Fatal("custom condition should reject distinct values")
	}
}

// The slow path reads the snapshot too, so it depends on EvalFrom freezing:
// a SetValue must be seen by the next call.
func TestSlowPathSeesSetValue(t *testing.T) {
	g := datagraph.New()
	g.MustAddNode("s", v("7"))
	g.MustAddNode("t", v("7"))
	g.MustAddEdge("s", "a", "t")
	for name, slow := range map[string]*Automaton{
		"custom-cond": buildSameEndsCustomCond(),
		"many-regs":   buildSameEndsManyRegs(),
	} {
		for i, c := range []struct {
			value string
			want  int
		}{{"7", 1}, {"8", 0}, {"7", 1}} {
			g.SetValue(1, v(c.value))
			if got := slow.EvalFrom(g, 0, datagraph.MarkedNulls); len(got) != c.want {
				t.Fatalf("%s step %d: δ(t) = %s: EvalFrom = %v, want %d answers", name, i, c.value, got, c.want)
			}
		}
	}
}
