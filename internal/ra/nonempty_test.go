package ra

import (
	"testing"

	"repro/internal/datagraph"
)

// emptyByContradiction builds ↓x.(a[x= ∧ x≠]): unsatisfiable condition.
func emptyByContradiction() *Automaton {
	b := &Builder{}
	s0, s1, s2, s3 := b.State(), b.State(), b.State(), b.State()
	b.Eps(s0, s1, True{}, []int{0})
	b.Letter(s1, s2, "a", false, True{}, nil)
	b.Eps(s2, s3, And{Eq{0}, Neq{0}}, nil)
	return b.Finish(s0, s3)
}

func TestNonemptyBasic(t *testing.T) {
	if !buildSameEnds(false).Nonempty() {
		t.Fatal("(a)= is nonempty")
	}
	if !buildSameEnds(true).Nonempty() {
		t.Fatal("(a)≠ is nonempty")
	}
	if emptyByContradiction().Nonempty() {
		t.Fatal("x= ∧ x≠ is unsatisfiable")
	}
}

func TestSomeDataPathWitnessVerifies(t *testing.T) {
	for name, a := range map[string]*Automaton{
		"(a)=": buildSameEnds(false),
		"(a)≠": buildSameEnds(true),
	} {
		w, ok := a.SomeDataPath()
		if !ok {
			t.Fatalf("%s: expected witness", name)
		}
		if !a.MatchDataPath(w, datagraph.MarkedNulls) {
			t.Fatalf("%s: witness %v rejected", name, w)
		}
	}
	if _, ok := emptyByContradiction().SomeDataPath(); ok {
		t.Fatal("empty automaton returned a witness")
	}
}

// A deeper witness: store, then require two different future values to
// equal two different registers (forces ≥ 3 distinct positions).
func TestSomeDataPathMultiRegister(t *testing.T) {
	b := &Builder{}
	s0 := b.State()
	s1 := b.State()
	s2 := b.State()
	s3 := b.State()
	s4 := b.State()
	// store r0 := d1; a-step storing r1 := d2 with d2 ≠ r0; a-step with
	// d3 = r0; a-step with d4 = r1.
	b.Eps(s0, s1, True{}, []int{0})
	b.Letter(s1, s2, "a", false, Neq{0}, []int{1})
	b.Letter(s2, s3, "a", false, Eq{0}, nil)
	b.Letter(s3, s4, "a", false, Eq{1}, nil)
	a := b.Finish(s0, s4)
	w, ok := a.SomeDataPath()
	if !ok {
		t.Fatal("language is nonempty")
	}
	if w.Len() != 3 {
		t.Fatalf("witness length %d, want 3 (%v)", w.Len(), w)
	}
	if !a.MatchDataPath(w, datagraph.MarkedNulls) {
		t.Fatalf("witness rejected: %v", w)
	}
	// Pattern check: d3 = d1, d4 = d2, d2 ≠ d1.
	if w.Values[2] != w.Values[0] || w.Values[3] != w.Values[1] || w.Values[1] == w.Values[0] {
		t.Fatalf("witness pattern wrong: %v", w)
	}
}

// Unreachable accept state.
func TestNonemptyUnreachable(t *testing.T) {
	b := &Builder{}
	s0, s1 := b.State(), b.State()
	_ = s1
	a := b.Finish(s0, s1)
	if a.Nonempty() {
		t.Fatal("no transitions: empty")
	}
	// Accept == start accepts the single-value data path.
	b2 := &Builder{}
	s := b2.State()
	a2 := b2.Finish(s, s)
	w, ok := a2.SomeDataPath()
	if !ok || w.Len() != 0 {
		t.Fatalf("trivial automaton: %v %v", w, ok)
	}
}

// Disjunctive conditions exercise the Or branch of the symbolic evaluator.
func TestNonemptyDisjunction(t *testing.T) {
	b := &Builder{}
	s0, s1, s2, s3 := b.State(), b.State(), b.State(), b.State()
	b.Eps(s0, s1, True{}, []int{0})
	b.Letter(s1, s2, "a", false, True{}, []int{1})
	// d3 equals r0 or r1 — satisfiable.
	b.Letter(s2, s3, "a", false, Or{Eq{0}, Eq{1}}, nil)
	a := b.Finish(s0, s3)
	w, ok := a.SomeDataPath()
	if !ok {
		t.Fatal("nonempty")
	}
	if !a.MatchDataPath(w, datagraph.MarkedNulls) {
		t.Fatalf("witness rejected: %v", w)
	}
}

// Three-valued SQL logic (Remark 2): eval(c, σ) = true iff evalsql(c, σ) =
// true, exhaustively over condition shapes and value combinations.
func TestRemark2ThreeValuedEquivalence(t *testing.T) {
	vals := []datagraph.Value{datagraph.V("1"), datagraph.V("2"), datagraph.Null()}
	conds := []Cond{
		True{},
		Eq{0}, Neq{0}, Eq{1}, Neq{1},
		And{Eq{0}, Neq{1}},
		Or{Eq{0}, Neq{1}},
		And{Or{Eq{0}, Eq{1}}, Neq{0}},
		Or{And{Eq{0}, Eq{1}}, Neq{1}},
	}
	// The kernel's two-valued evaluator reads interned ids: value i of vals
	// is id i+1, so the null is id 3.
	const nullID = 3
	for i0, r0 := range vals {
		for i1, r1 := range vals {
			for id, d := range vals {
				regs := []datagraph.Value{r0, r1}
				set := []bool{true, true}
				ids := []int32{int32(i0 + 1), int32(i1 + 1)}
				for _, c := range conds {
					two := evalCondID(c, ids, int32(id+1), nullID, datagraph.SQLNulls)
					three := EvalSQL3(c, regs, set, d)
					if two != (three == True3) {
						t.Fatalf("cond %s regs (%s,%s) d %s: two-valued %v, three-valued %v",
							c, r0, r1, d, two, three)
					}
				}
			}
		}
	}
}

func TestTruthTableHelpers(t *testing.T) {
	if and3(Unknown3, True3) != Unknown3 || and3(Unknown3, False3) != False3 {
		t.Fatal("and3 table wrong")
	}
	if or3(Unknown3, False3) != Unknown3 || or3(Unknown3, True3) != True3 {
		t.Fatal("or3 table wrong")
	}
	if False3.String() != "false" || Unknown3.String() != "unknown" || True3.String() != "true" {
		t.Fatal("Truth rendering wrong")
	}
	// Unset registers are false even in three-valued logic.
	if EvalSQL3(Eq{0}, []datagraph.Value{{}}, []bool{false}, datagraph.V("x")) != False3 {
		t.Fatal("unset register should be false")
	}
	if EvalSQL3(Neq{0}, []datagraph.Value{{}}, []bool{false}, datagraph.V("x")) != False3 {
		t.Fatal("unset register should be false")
	}
}
