// Package ra implements register automata over data paths (Kaminski &
// Francez; used by the paper in Section 3 as the automaton model underlying
// data RPQs). A register automaton reads a data path d₁a₁d₂…aₙdₙ₊₁,
// maintaining a finite set of registers holding data values. Transitions are
// either ε-moves or letter moves; both may test a condition against the
// *current* data value and then store the current value into registers.
//
// An Automaton is the one compiled form of every query language here. The
// regular operators are built once, by the Thompson construction on
// Builder; package rpq adds nothing to it, so an RPQ is the zero-register
// automaton of its expression. Package ree adds e=/e≠ as a
// store-on-entry/test-on-exit pair around the fragment of e, and package
// rem adds ↓x̄.e as an ε-move that stores and e[c] as an ε-move that tests.
//
// One kernel evaluates every automaton over a graph's frozen snapshot (see
// snapshot.go): a search over (state, node, registers…) configurations of
// interned ids, at any register count. Zero-register automata take the
// specialised product, word and reachability searches of fast.go, and
// Determinize turns them into a DFA (dfa.go) over a fixed alphabet plus an
// Other column: the one deterministic form, which the PCP shape check
// complements and Proposition 5 walks for its word choices.
//
// Conditions are evaluated under a datagraph.CompareMode, which is how the
// SQL-null semantics of Section 7 reaches query evaluation: in SQLNulls
// mode no comparison involving the null value is true.
package ra

import (
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/datagraph"
)

// Cond is a condition evaluated against a register assignment and the
// current data value (the pair (σ, d) of the paper's Section 3). The set of
// conditions is closed: True, Eq, Neq, And and Or.
type Cond interface {
	String() string
	cond()
}

// True is the always-true condition.
type True struct{}

// Eq is the atomic condition x= : σ(x) = d.
type Eq struct{ Reg int }

// Neq is the atomic condition x≠ : σ(x) ≠ d.
type Neq struct{ Reg int }

// And is conjunction.
type And struct{ L, R Cond }

// Or is disjunction.
type Or struct{ L, R Cond }

func (True) cond() {}
func (Eq) cond()   {}
func (Neq) cond()  {}
func (And) cond()  {}
func (Or) cond()   {}

func (True) String() string  { return "true" }
func (c Eq) String() string  { return fmt.Sprintf("r%d=", c.Reg) }
func (c Neq) String() string { return fmt.Sprintf("r%d!=", c.Reg) }
func (c And) String() string { return fmt.Sprintf("(%s & %s)", c.L, c.R) }
func (c Or) String() string  { return fmt.Sprintf("(%s | %s)", c.L, c.R) }

// HasNeq reports whether the condition contains an inequality atom; used to
// classify REM= (Section 8).
func HasNeq(c Cond) bool {
	switch t := c.(type) {
	case Neq:
		return true
	case And:
		return HasNeq(t.L) || HasNeq(t.R)
	case Or:
		return HasNeq(t.L) || HasNeq(t.R)
	default:
		return false
	}
}

// evalCondID evaluates a condition over interned value ids: regs[r] is the
// id register r holds, 0 when it is unset, and comparisons against an unset
// register are false (the paper excludes such pathological expressions; we
// evaluate them harmlessly). nullID is the id of the null value, which in
// SQLNulls mode compares true with nothing.
func evalCondID(c Cond, regs []int32, cur, nullID int32, mode datagraph.CompareMode) bool {
	switch t := c.(type) {
	case Eq:
		r := regs[t.Reg]
		return r != 0 && r == cur && (mode != datagraph.SQLNulls || r != nullID)
	case Neq:
		r := regs[t.Reg]
		return r != 0 && r != cur && (mode != datagraph.SQLNulls || r != nullID && cur != nullID)
	case And:
		return evalCondID(t.L, regs, cur, nullID, mode) && evalCondID(t.R, regs, cur, nullID, mode)
	case Or:
		return evalCondID(t.L, regs, cur, nullID, mode) || evalCondID(t.R, regs, cur, nullID, mode)
	default: // True
		return true
	}
}

// Transition is a move of the automaton. ε-moves test Cond against the
// current data value and then store it into Store registers. Letter moves
// first consume a label matching Label/AnyLabel, making the *next* data
// value current, then test Cond against it and store it.
type Transition struct {
	To       int
	Eps      bool
	Label    string
	AnyLabel bool
	Cond     Cond
	Store    []int
}

// Automaton is a register automaton with a single start and accept state
// (an invariant of the Thompson construction).
type Automaton struct {
	NumStates int
	NumRegs   int
	Start     int
	Accept    int
	Trans     [][]Transition // indexed by source state

	// Start-frontier metadata, precomputed by Finish (see StartLabels).
	startLabels []string
	startAny    bool
	emptyOK     bool

	// zero is the letter-step form of a zero-register automaton, built by
	// Finish; nil when NumRegs > 0. See fast.go.
	zero *zeroForm

	// progCache holds the automaton lowered onto the most recent graph
	// snapshot (transition labels interned, dead transitions dropped); see
	// snapshot.go.
	progCache atomic.Pointer[prog]
}

// StartLabels returns a superset of the edge labels able to begin a
// nonempty match, and whether that superset is exhaustive (it is not when
// an any-label transition is ε-reachable from the start state). Frontier
// schedulers use it to skip start nodes with no matching out-edge; because
// it over-approximates (register conditions are ignored), skipping is
// always sound.
func (a *Automaton) StartLabels() (labels []string, exhaustive bool) {
	return a.startLabels, !a.startAny
}

// AcceptsEmptyPath reports whether the automaton may accept a single-node
// data path — an over-approximation by ε-reachability of the accept state,
// ignoring register conditions. When it returns false, no start node can be
// its own answer, so frontier pruning by StartLabels is complete.
func (a *Automaton) AcceptsEmptyPath() bool { return a.emptyOK }

// closure calls visit on every state ε-reachable from from, itself
// included, ignoring conditions. seen (one flag per state) and stack are
// the caller's scratch; the stack is returned for reuse.
func (a *Automaton) closure(from int, seen []bool, stack []int, visit func(s int)) []int {
	clear(seen)
	seen[from] = true
	stack = append(stack[:0], from)
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		visit(s)
		for _, t := range a.Trans[s] {
			if t.Eps && !seen[t.To] {
				seen[t.To] = true
				stack = append(stack, t.To)
			}
		}
	}
	return stack
}

// computeStartInfo fills the start-frontier metadata from the letter
// moves of the start state's ε-closure, conditions ignored — an
// over-approximation.
func (a *Automaton) computeStartInfo(seen []bool, stack []int) []int {
	stack = a.closure(a.Start, seen, stack, func(s int) {
		a.emptyOK = a.emptyOK || s == a.Accept
		for _, t := range a.Trans[s] {
			switch {
			case t.Eps:
			case t.AnyLabel:
				a.startAny = true
			default:
				a.startLabels = append(a.startLabels, t.Label)
			}
		}
	})
	slices.Sort(a.startLabels)
	a.startLabels = slices.Compact(a.startLabels)
	return stack
}

// Builder incrementally constructs an Automaton.
type Builder struct {
	trans   [][]Transition
	numRegs int
}

// State allocates a fresh state and returns its index.
func (b *Builder) State() int {
	b.trans = append(b.trans, nil)
	return len(b.trans) - 1
}

// Eps adds an ε-move.
func (b *Builder) Eps(from, to int, cond Cond, store []int) {
	b.noteRegs(cond, store)
	b.trans[from] = append(b.trans[from], Transition{To: to, Eps: true, Cond: cond, Store: store})
}

// Letter adds a letter move on the given label (or any label).
func (b *Builder) Letter(from, to int, label string, anyLabel bool, cond Cond, store []int) {
	b.noteRegs(cond, store)
	b.trans[from] = append(b.trans[from], Transition{
		To: to, Label: label, AnyLabel: anyLabel, Cond: cond, Store: store,
	})
}

func (b *Builder) noteRegs(cond Cond, store []int) {
	for _, r := range store {
		if r+1 > b.numRegs {
			b.numRegs = r + 1
		}
	}
	var walk func(Cond)
	walk = func(c Cond) {
		switch t := c.(type) {
		case Eq:
			if t.Reg+1 > b.numRegs {
				b.numRegs = t.Reg + 1
			}
		case Neq:
			if t.Reg+1 > b.numRegs {
				b.numRegs = t.Reg + 1
			}
		case And:
			walk(t.L)
			walk(t.R)
		case Or:
			walk(t.L)
			walk(t.R)
		}
	}
	walk(cond)
}

// Frag is a fragment of an automaton under construction with one entry
// and one exit state: the unit the Thompson construction composes.
type Frag struct{ Start, Accept int }

// The Thompson construction of the regular operators. Every query language
// compiles its regular part through these methods and adds only its own
// operators around the fragments they return.

// Epsilon returns a fragment accepting exactly the single-value paths.
func (b *Builder) Epsilon() Frag {
	f := Frag{b.State(), b.State()}
	b.Eps(f.Start, f.Accept, True{}, nil)
	return f
}

// Symbol returns a fragment of one letter move on label, or on any label.
func (b *Builder) Symbol(label string, anyLabel bool) Frag {
	f := Frag{b.State(), b.State()}
	b.Letter(f.Start, f.Accept, label, anyLabel, True{}, nil)
	return f
}

// Concat chains the n fragments factor(0), …, factor(n-1); with n = 0 it
// is Epsilon.
func (b *Builder) Concat(n int, factor func(i int) Frag) Frag {
	if n == 0 {
		return b.Epsilon()
	}
	f := factor(0)
	for i := 1; i < n; i++ {
		next := factor(i)
		b.Eps(f.Accept, next.Start, True{}, nil)
		f.Accept = next.Accept
	}
	return f
}

// Union joins the n fragments alt(0), …, alt(n-1) between a fresh entry
// and exit state.
func (b *Builder) Union(n int, alt func(i int) Frag) Frag {
	u := Frag{b.State(), b.State()}
	for i := 0; i < n; i++ {
		f := alt(i)
		b.Eps(u.Start, f.Start, True{}, nil)
		b.Eps(f.Accept, u.Accept, True{}, nil)
	}
	return u
}

// Plus is f⁺.
func (b *Builder) Plus(f Frag) Frag { return b.repeat(f, false, true) }

// Star is f*.
func (b *Builder) Star(f Frag) Frag { return b.repeat(f, true, true) }

// Opt is f?.
func (b *Builder) Opt(f Frag) Frag { return b.repeat(f, true, false) }

// repeat wraps f between a fresh entry and exit state, with a bypass when
// f may be skipped and a loop back when it may repeat.
func (b *Builder) repeat(f Frag, skip, loop bool) Frag {
	r := Frag{b.State(), b.State()}
	if skip {
		b.Eps(r.Start, r.Accept, True{}, nil)
	}
	b.Eps(r.Start, f.Start, True{}, nil)
	if loop {
		b.Eps(f.Accept, f.Start, True{}, nil)
	}
	b.Eps(f.Accept, r.Accept, True{}, nil)
	return r
}

// Finish seals the automaton with the given start and accept states. All
// derived metadata (start-frontier labels, the zero-register form) is
// resolved here so the finished automaton is never written to again, except
// for its program cache, and can be shared across goroutines.
func (b *Builder) Finish(start, accept int) *Automaton {
	a := &Automaton{
		NumStates: len(b.trans),
		NumRegs:   b.numRegs,
		Start:     start,
		Accept:    accept,
		Trans:     b.trans,
	}
	seen := make([]bool, a.NumStates)
	stack := a.computeStartInfo(seen, make([]int, 0, a.NumStates))
	if a.NumRegs == 0 {
		a.zero = newZeroForm(a, seen, stack)
	}
	return a
}

// MatchDataPath reports whether the automaton accepts the data path under
// the given comparison mode. The search explores configurations
// (state, position, registers) on the kernel's tuple set, with the path's
// values interned per call; since register contents range over the values
// of the path, the configuration space is finite and membership terminates
// (polynomial for a fixed number of registers, NP-complete in combined
// complexity for REM as the paper notes).
func (a *Automaton) MatchDataPath(w datagraph.DataPath, mode datagraph.CompareMode) bool {
	vals := make([]int32, len(w.Values))
	ids := make(map[datagraph.Value]int32, len(w.Values))
	nullID := int32(-1)
	for i, v := range w.Values {
		id, ok := ids[v]
		if !ok {
			id = int32(len(ids) + 1)
			ids[v] = id
			if v.IsNull() {
				nullID = id
			}
		}
		vals[i] = id
	}
	sc := datagraph.AcquireScratch(0, 0, 2+a.NumRegs)
	defer sc.Release()
	sc.NextEpoch()
	next := sc.TupleBuffer()
	next[0] = int32(a.Start)
	sc.AddTuple(next)
	last := len(w.Labels)
	// Depth first, by tuple index on sc.Queue: a match is found as soon as
	// one configuration reaches the end of the path.
	sc.Queue = append(sc.Queue[:0], 0)
	for len(sc.Queue) > 0 {
		c := sc.Tuple(int(sc.Queue[len(sc.Queue)-1]))
		sc.Queue = sc.Queue[:len(sc.Queue)-1]
		state, pos, regs := int(c[0]), int(c[1]), c[2:]
		if state == a.Accept && pos == last {
			return true
		}
		for _, t := range a.Trans[state] {
			at := pos
			if !t.Eps {
				if pos == last || !t.AnyLabel && w.Labels[pos] != t.Label {
					continue
				}
				at++
			}
			if !evalCondID(t.Cond, regs, vals[at], nullID, mode) {
				continue
			}
			copy(next, c)
			next[0], next[1] = int32(t.To), int32(at)
			for _, r := range t.Store {
				next[2+r] = vals[at]
			}
			if sc.AddTuple(next) {
				sc.Queue = append(sc.Queue, int32(sc.NumTuples()-1))
			}
		}
	}
	return false
}

// EvalFrom returns the node indices v such that some path from u to v has a
// data path accepted by the automaton. This is the graph-product evaluation
// underlying the NLogspace data-complexity claims (Theorems 3 and 5): the
// configuration space is nodes × states × register contents, with register
// contents drawn from the graph's values. It runs on the graph's snapshot;
// an unfrozen graph is frozen first, which after a SetValue-only change is a
// value-only refresh reusing the cached topology.
func (a *Automaton) EvalFrom(g *datagraph.Graph, u int, mode datagraph.CompareMode) []int {
	var out []int
	a.EvalRange(g, u, u+1, mode, func(_, v int) { out = append(out, v) })
	return out
}

// Eval returns all pairs (u, v) such that some path from u to v matches:
// EvalRange over every start node.
func (a *Automaton) Eval(g *datagraph.Graph, mode datagraph.CompareMode) *datagraph.PairSet {
	n := g.NumNodes()
	out := datagraph.NewPairSetSized(n)
	a.EvalRange(g, 0, n, mode, out.Add)
	return out
}
