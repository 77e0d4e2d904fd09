package ra

import (
	"sort"
	"testing"

	"repro/internal/datagraph"
)

func v(s string) datagraph.Value { return datagraph.V(s) }

// buildSameEnds builds the automaton for (a)= : a single a-step whose first
// and last data values must be equal. States: 0 -ε(store r0)-> 1 -a-> 2
// -ε(check r0=)-> 3.
func buildSameEnds(neq bool) *Automaton {
	b := &Builder{}
	s0, s1, s2, s3 := b.State(), b.State(), b.State(), b.State()
	b.Eps(s0, s1, True{}, []int{0})
	b.Letter(s1, s2, "a", false, True{}, nil)
	var cond Cond = Eq{Reg: 0}
	if neq {
		cond = Neq{Reg: 0}
	}
	b.Eps(s2, s3, cond, nil)
	return b.Finish(s0, s3)
}

func dp(vals []string, labels ...string) datagraph.DataPath {
	vv := make([]datagraph.Value, len(vals))
	for i, s := range vals {
		vv[i] = v(s)
	}
	return datagraph.NewDataPath(vv, labels)
}

func TestMatchEquality(t *testing.T) {
	a := buildSameEnds(false)
	if !a.MatchDataPath(dp([]string{"1", "1"}, "a"), datagraph.MarkedNulls) {
		t.Fatal("(a)= must accept 1 a 1")
	}
	if a.MatchDataPath(dp([]string{"1", "2"}, "a"), datagraph.MarkedNulls) {
		t.Fatal("(a)= must reject 1 a 2")
	}
	if a.MatchDataPath(dp([]string{"1", "1"}, "b"), datagraph.MarkedNulls) {
		t.Fatal("wrong label must be rejected")
	}
	if a.MatchDataPath(dp([]string{"1"}), datagraph.MarkedNulls) {
		t.Fatal("too-short path must be rejected")
	}
}

func TestMatchInequality(t *testing.T) {
	a := buildSameEnds(true)
	if a.MatchDataPath(dp([]string{"1", "1"}, "a"), datagraph.MarkedNulls) {
		t.Fatal("(a)≠ must reject 1 a 1")
	}
	if !a.MatchDataPath(dp([]string{"1", "2"}, "a"), datagraph.MarkedNulls) {
		t.Fatal("(a)≠ must accept 1 a 2")
	}
}

func TestSQLNullSemantics(t *testing.T) {
	eq := buildSameEnds(false)
	ne := buildSameEnds(true)
	nullPath := datagraph.NewDataPath([]datagraph.Value{datagraph.Null(), datagraph.Null()}, []string{"a"})
	mixed := datagraph.NewDataPath([]datagraph.Value{v("1"), datagraph.Null()}, []string{"a"})
	// Under SQL semantics, neither = nor ≠ can be true with nulls involved.
	if eq.MatchDataPath(nullPath, datagraph.SQLNulls) {
		t.Fatal("null = null must not hold under SQL semantics")
	}
	if ne.MatchDataPath(mixed, datagraph.SQLNulls) {
		t.Fatal("1 ≠ null must not hold under SQL semantics")
	}
	// Under marked semantics nulls are constants: null = null holds.
	if !eq.MatchDataPath(nullPath, datagraph.MarkedNulls) {
		t.Fatal("null = null should hold under marked semantics")
	}
	if !ne.MatchDataPath(mixed, datagraph.MarkedNulls) {
		t.Fatal("1 ≠ null should hold under marked semantics")
	}
}

func TestConditionTree(t *testing.T) {
	// Interned ids: "1" is 1 and "2" is 2; registers hold 1 and 2.
	regs := []int32{1, 2}
	d := int32(1)
	m := datagraph.MarkedNulls
	if !evalCondID(And{Eq{0}, Neq{1}}, regs, d, -1, m) {
		t.Fatal("1=1 ∧ 2≠1 should hold")
	}
	if evalCondID(And{Eq{0}, Eq{1}}, regs, d, -1, m) {
		t.Fatal("1=1 ∧ 2=1 should fail")
	}
	if !evalCondID(Or{Eq{1}, Eq{0}}, regs, d, -1, m) {
		t.Fatal("2=1 ∨ 1=1 should hold")
	}
	// Unset registers never compare true.
	unset := []int32{0, 0}
	if evalCondID(Eq{0}, unset, d, -1, m) || evalCondID(Neq{0}, unset, d, -1, m) {
		t.Fatal("unset register comparisons must be false")
	}
	if !HasNeq(And{Eq{0}, Or{True{}, Neq{1}}}) {
		t.Fatal("HasNeq should find nested ≠")
	}
	if HasNeq(And{Eq{0}, Eq{1}}) {
		t.Fatal("HasNeq false positive")
	}
	// String smoke test.
	if (And{Eq{0}, Or{Neq{1}, True{}}}).String() == "" {
		t.Fatal("empty condition string")
	}
}

func TestBuilderRegisterCount(t *testing.T) {
	b := &Builder{}
	s0, s1 := b.State(), b.State()
	b.Eps(s0, s1, Eq{Reg: 4}, []int{2})
	a := b.Finish(s0, s1)
	if a.NumRegs != 5 {
		t.Fatalf("NumRegs = %d, want 5", a.NumRegs)
	}
}

// Graph evaluation: (a)= on a diamond where only one branch has matching
// values.
func TestEvalFromGraph(t *testing.T) {
	g := datagraph.New()
	g.MustAddNode("s", v("7"))
	g.MustAddNode("good", v("7"))
	g.MustAddNode("bad", v("8"))
	g.MustAddEdge("s", "a", "good")
	g.MustAddEdge("s", "a", "bad")
	a := buildSameEnds(false)
	si, _ := g.IndexOf("s")
	got := a.EvalFrom(g, si, datagraph.MarkedNulls)
	gi, _ := g.IndexOf("good")
	if len(got) != 1 || got[0] != gi {
		t.Fatalf("EvalFrom = %v, want [%d]", got, gi)
	}
	pairs := a.Eval(g, datagraph.MarkedNulls)
	if pairs.Len() != 1 || !pairs.Has(si, gi) {
		t.Fatalf("Eval = %v", pairs.Sorted())
	}
}

// The example from the paper: ↓x.(a[x≠])+ — all values after the first
// differ from the first. Automaton: store r0 at start, then loop a-steps
// each checking r0≠.
func TestPaperExampleAllDifferent(t *testing.T) {
	b := &Builder{}
	s0, s1, s2 := b.State(), b.State(), b.State()
	b.Eps(s0, s1, True{}, []int{0})
	b.Letter(s1, s2, "a", false, Neq{Reg: 0}, nil)
	b.Eps(s2, s1, True{}, nil) // loop
	a := b.Finish(s0, s2)
	m := datagraph.MarkedNulls
	if !a.MatchDataPath(dp([]string{"d", "1", "2", "3"}, "a", "a", "a"), m) {
		t.Fatal("d a 1 a 2 a 3 should match")
	}
	if a.MatchDataPath(dp([]string{"d", "1", "d"}, "a", "a"), m) {
		t.Fatal("d a 1 a d must not match (d reappears)")
	}
	// Note: repetitions among later values are fine as long as ≠ first.
	if !a.MatchDataPath(dp([]string{"d", "1", "1"}, "a", "a"), m) {
		t.Fatal("d a 1 a 1 should match")
	}
}

// Register reuse across a cycle in the graph: configurations must be
// deduplicated by register contents, not just (node, state).
func TestCycleTermination(t *testing.T) {
	g := datagraph.New()
	g.MustAddNode("x", v("1"))
	g.MustAddNode("y", v("2"))
	g.MustAddEdge("x", "a", "y")
	g.MustAddEdge("y", "a", "x")
	// ↓x.(a[x≠])+ starting anywhere on the 2-cycle: from x we can reach y
	// (2≠1) but then x again fails (1≠1 false).
	b := &Builder{}
	s0, s1, s2 := b.State(), b.State(), b.State()
	b.Eps(s0, s1, True{}, []int{0})
	b.Letter(s1, s2, "a", false, Neq{Reg: 0}, nil)
	b.Eps(s2, s1, True{}, nil)
	a := b.Finish(s0, s2)
	xi, _ := g.IndexOf("x")
	yi, _ := g.IndexOf("y")
	got := a.EvalFrom(g, xi, datagraph.MarkedNulls)
	sort.Ints(got)
	if len(got) != 1 || got[0] != yi {
		t.Fatalf("from x: %v, want just y", got)
	}
}

// AnyLabel transitions.
func TestAnyLabel(t *testing.T) {
	b := &Builder{}
	s0, s1 := b.State(), b.State()
	b.Letter(s0, s1, "", true, True{}, nil)
	a := b.Finish(s0, s1)
	if !a.MatchDataPath(dp([]string{"1", "2"}, "weird_label"), datagraph.MarkedNulls) {
		t.Fatal("any-label step should accept any label")
	}
}

// Store on letter transitions: value stored is the value *after* the step.
func TestStoreOnLetter(t *testing.T) {
	// a (store r0) then b with check r0=: accepts d1 a d2 b d3 iff d2 = d3.
	b := &Builder{}
	s0, s1, s2 := b.State(), b.State(), b.State()
	b.Letter(s0, s1, "a", false, True{}, []int{0})
	b.Letter(s1, s2, "b", false, Eq{Reg: 0}, nil)
	a := b.Finish(s0, s2)
	m := datagraph.MarkedNulls
	if !a.MatchDataPath(dp([]string{"9", "5", "5"}, "a", "b"), m) {
		t.Fatal("9 a 5 b 5 should match")
	}
	if a.MatchDataPath(dp([]string{"5", "9", "5"}, "a", "b"), m) {
		t.Fatal("5 a 9 b 5 must not match")
	}
}

func TestEpsilonOnlyAutomaton(t *testing.T) {
	b := &Builder{}
	s0, s1 := b.State(), b.State()
	b.Eps(s0, s1, True{}, nil)
	a := b.Finish(s0, s1)
	if !a.MatchDataPath(dp([]string{"1"}), datagraph.MarkedNulls) {
		t.Fatal("ε-automaton should accept single-value path")
	}
	if a.MatchDataPath(dp([]string{"1", "2"}, "a"), datagraph.MarkedNulls) {
		t.Fatal("ε-automaton must reject nonempty path")
	}
}
