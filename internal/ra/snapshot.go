package ra

import (
	"repro/internal/datagraph"
)

// This file is the graph evaluation kernel: the automaton compiled against
// one graph snapshot's label interner, evaluated over the snapshot's
// interned values with pooled scratch. Labels and values are resolved once
// per (automaton, snapshot) pair and shared across all start nodes of a
// batch. The lowered program also drives the string-key slow path
// (evalFromSlow), so every graph evaluation reads the snapshot.

// prog is the automaton lowered onto one snapshot: transition labels
// interned, transitions on labels absent from the graph dropped (they can
// never fire), start-frontier labels interned for pruning.
type prog struct {
	snap        *datagraph.Snapshot
	trans       [][]progTrans
	startLabels []datagraph.Label
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
	p := &prog{snap: snap, trans: make([][]progTrans, a.NumStates)}
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
			p.trans[s] = append(p.trans[s], pt)
		}
	}
	for _, name := range a.startLabels {
		if l, ok := snap.LabelID(name); ok {
			p.startLabels = append(p.startLabels, l)
		}
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

// acquireScratch takes a kernel scratch sized for p's snapshot, holding
// configurations as (state, node, registers…) tuples.
func (a *Automaton) acquireScratch(p *prog) *datagraph.Scratch {
	return datagraph.AcquireScratch(p.snap.NumNodes(), 0, 2+a.NumRegs)
}

// evalFromProg runs the configuration search from start node u over the
// snapshot, emitting each accepted target once. The scratch's tuple set is
// both the visited set and, walked in insertion order, the queue.
func (a *Automaton) evalFromProg(p *prog, u int, mode datagraph.CompareMode, sc *datagraph.Scratch, emit func(v int)) {
	snap := p.snap
	nullID := snap.NullValueID()
	w := 2 + a.NumRegs
	sc.NextEpoch()
	// c is the configuration being expanded, copied out of the scratch
	// because AddTuple may move the tuples.
	var c, next [2 + maxFastRegs]int32
	c[0], c[1] = int32(a.Start), int32(u)
	sc.AddTuple(c[:w])
	for i := 0; i < sc.NumTuples(); i++ {
		copy(c[:w], sc.Tuple(i))
		state, pos, regs := c[0], int(c[1]), c[2:w]
		if int(state) == a.Accept && sc.MarkNode(pos) {
			emit(pos)
		}
		cur := snap.ValueID(pos)
		for ti := range p.trans[state] {
			t := &p.trans[state][ti]
			if t.eps {
				ok, _ := evalCondID(t.cond, regs, cur, nullID, mode)
				if !ok {
					continue
				}
				next = c
				next[0] = t.to
				for _, r := range t.store {
					next[2+r] = cur
				}
				sc.AddTuple(next[:w])
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
				ok, _ := evalCondID(t.cond, regs, nv, nullID, mode)
				if !ok {
					continue
				}
				next = c
				next[0], next[1] = t.to, to
				for _, r := range t.store {
					next[2+r] = nv
				}
				sc.AddTuple(next[:w])
			}
		}
	}
}

// EvalRange evaluates the automaton from every start node in [lo, hi),
// emitting each answer pair once. It freezes the graph (cheap when already
// frozen), lowers the automaton onto the snapshot once, prunes start nodes
// by interned start labels, and runs the whole range on one pooled scratch —
// the engine's frontier shards call this with their chunk bounds.
func (a *Automaton) EvalRange(g *datagraph.Graph, lo, hi int, mode datagraph.CompareMode, emit func(u, v int)) {
	p := a.program(g.Freeze())
	if !a.fastOK() {
		for u := lo; u < hi; u++ {
			for _, v := range a.evalFromSlow(p, u, mode) {
				emit(u, v)
			}
		}
		return
	}
	sc := a.acquireScratch(p)
	defer sc.Release()
	for u := lo; u < hi; u++ {
		if p.canSkipStart(a, u) {
			continue
		}
		a.evalFromProg(p, u, mode, sc, func(v int) { emit(u, v) })
	}
}
