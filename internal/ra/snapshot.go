package ra

import (
	"repro/internal/datagraph"
)

// This file is the graph evaluation kernel: the automaton lowered onto one
// graph snapshot's label interner, evaluated over the snapshot's interned
// values on a pooled datagraph.Scratch. Labels are resolved once per
// (automaton, snapshot) pair and shared by every start node of a batch.
// Automata with registers run the configuration search below, whose
// (state, node, registers…) tuples live in the scratch's tuple set at any
// width; zero-register automata run the searches of fast.go.

// prog is the automaton lowered onto one snapshot: labels interned,
// transitions on labels absent from the graph dropped (they can never fire),
// start-frontier labels interned for pruning. Transitions are stored flat,
// those of state s at first[s]:first[s+1]; for a zero-register automaton
// the states are the live ones of its zeroForm and the transitions its
// letter steps.
type prog struct {
	snap        *datagraph.Snapshot
	startLabels []datagraph.Label
	first       []int32
	trans       []progTrans // automata with registers
	steps       []progStep  // zero-register automata
	word        []datagraph.Label
	wordDead    bool // a label of the word is absent: no match exists
}

type progTrans struct {
	to    int32
	eps   bool
	any   bool
	label datagraph.Label
	cond  Cond
	store []int
}

// program returns the automaton lowered onto snap, cached on the automaton.
// Concurrent callers sharing one snapshot (the engine's workers) hit the
// cache; alternating snapshots rebuild, which is only wasted work.
func (a *Automaton) program(snap *datagraph.Snapshot) *prog {
	if p := a.progCache.Load(); p != nil && p.snap == snap {
		return p
	}
	p := &prog{snap: snap}
	for _, name := range a.startLabels {
		if l, ok := snap.LabelID(name); ok {
			p.startLabels = append(p.startLabels, l)
		}
	}
	if a.zero != nil {
		a.zero.lower(p)
		a.progCache.Store(p)
		return p
	}
	p.first = make([]int32, a.NumStates+1)
	numTrans := 0
	for _, ts := range a.Trans {
		numTrans += len(ts)
	}
	p.trans = make([]progTrans, 0, numTrans)
	for s, ts := range a.Trans {
		for _, t := range ts {
			pt := progTrans{to: int32(t.To), eps: t.Eps, any: t.AnyLabel, cond: t.Cond, store: t.Store}
			if !t.Eps && !t.AnyLabel {
				l, ok := snap.LabelID(t.Label)
				if !ok {
					continue // label absent from the graph: dead transition
				}
				pt.label = l
			}
			p.trans = append(p.trans, pt)
		}
		p.first[s+1] = int32(len(p.trans))
	}
	a.progCache.Store(p)
	return p
}

// canSkipStart reports whether u cannot begin any match: the start-label
// set is exhaustive, the automaton cannot accept a single-node path, and u
// has no out-edge carrying a start label.
func (p *prog) canSkipStart(a *Automaton, u int) bool {
	if a.startAny || a.emptyOK {
		return false
	}
	for _, l := range p.startLabels {
		if p.snap.HasOutLabeled(u, l) {
			return false
		}
	}
	return true
}

// EvalRange evaluates the automaton from every start node in [lo, hi),
// emitting each answer pair once. It freezes the graph (cheap when already
// frozen), lowers the automaton onto the snapshot once, and runs the whole
// range on one pooled scratch — the engine's frontier shards call this with
// their chunk bounds.
func (a *Automaton) EvalRange(g *datagraph.Graph, lo, hi int, mode datagraph.CompareMode, emit func(u, v int)) {
	sc := datagraph.AcquireScratch(0, 0, 0)
	defer sc.Release()
	a.EvalRangeOn(g, lo, hi, mode, sc, emit)
}

// EvalRangeOn is EvalRange on the caller's scratch, which it resizes for
// the snapshot and the automaton; a scratch sized for another snapshot or
// automaton, or left at any epoch, serves as it is.
func (a *Automaton) EvalRangeOn(g *datagraph.Graph, lo, hi int, mode datagraph.CompareMode, sc *datagraph.Scratch, emit func(u, v int)) {
	p := a.program(g.Freeze())
	sc.Resize(a.scratchSize(p))
	a.run(p, lo, hi, mode, sc, emit)
}

// scratchSize is what run needs of a scratch on p's snapshot: node marks,
// product marks for the zero-register product, tuples for the register
// search.
func (a *Automaton) scratchSize(p *prog) (nodes, product, width int) {
	n := p.snap.NumNodes()
	switch {
	case a.zero == nil:
		return n, 0, 2 + a.NumRegs
	case a.zero.shape == shapeProduct:
		return n, n * (len(p.first) - 1), 0
	default:
		return n, 0, 0
	}
}

// run searches from every start node in [lo, hi) with the search of the
// automaton's shape, skipping start nodes that cannot begin a match.
func (a *Automaton) run(p *prog, lo, hi int, mode datagraph.CompareMode, sc *datagraph.Scratch, emit func(u, v int)) {
	z := a.zero
	for u := lo; u < hi; u++ {
		switch {
		case z != nil && z.shape == shapeReach:
			p.reach(u, sc, emit)
		case z != nil && z.shape == shapeWord:
			p.walkWord(u, sc, emit)
		case p.canSkipStart(a, u):
		case z != nil:
			z.product(p, u, sc, emit)
		default:
			a.search(p, u, mode, sc, emit)
		}
	}
}

// search runs the configuration search from start node u, emitting each
// accepted target once. The scratch's tuple set is both the visited set and,
// walked in insertion order, the queue.
func (a *Automaton) search(p *prog, u int, mode datagraph.CompareMode, sc *datagraph.Scratch, emit func(u, v int)) {
	snap, first, trans := p.snap, p.first, p.trans
	nullID := snap.NullValueID()
	sc.NextEpoch()
	next := sc.TupleBuffer()
	next[0], next[1] = int32(a.Start), int32(u)
	sc.AddTuple(next)
	for i := 0; i < sc.NumTuples(); i++ {
		c := sc.Tuple(i)
		state, pos, regs := c[0], int(c[1]), c[2:]
		if int(state) == a.Accept && sc.MarkNode(pos) {
			emit(u, pos)
		}
		cur := snap.ValueID(pos)
		for ti := first[state]; ti < first[state+1]; ti++ {
			t := &trans[ti]
			if t.eps {
				if !evalCondID(t.cond, regs, cur, nullID, mode) {
					continue
				}
				copy(next, c)
				next[0] = t.to
				for _, r := range t.store {
					next[2+r] = cur
				}
				sc.AddTuple(next)
				continue
			}
			var targets []int32
			if t.any {
				targets = snap.OutAll(pos)
			} else {
				targets = snap.OutLabeled(pos, t.label)
			}
			for _, to := range targets {
				nv := snap.ValueID(int(to))
				if !evalCondID(t.cond, regs, nv, nullID, mode) {
					continue
				}
				copy(next, c)
				next[0], next[1] = t.to, to
				for _, r := range t.store {
					next[2+r] = nv
				}
				sc.AddTuple(next)
			}
		}
	}
}
