package rpq

import (
	"repro/internal/datagraph"
)

// This file is the snapshot evaluation kernel for navigational RPQs: the
// query NFA lowered onto a graph snapshot's label interner (steps on labels
// absent from the graph dropped), evaluated by product BFS on a pooled
// datagraph.Scratch shared across a whole start-node range.

// snapProg is the NFA lowered onto one snapshot.
type snapProg struct {
	snap        *datagraph.Snapshot
	steps       [][]snapStep
	word        []datagraph.Label // interned word for word RPQs
	wordDead    bool              // a word label is absent: no nonempty match exists
	startLabels []datagraph.Label
}

type snapStep struct {
	label     datagraph.Label
	any       bool
	toClosure []int // ε-closure of the step target, precomputed at compile time
}

// program returns the query lowered onto snap, cached on the query. The
// cache holds one entry: the snapshot evaluation last ran against.
func (q *Query) program(snap *datagraph.Snapshot) *snapProg {
	if p := q.progCache.Load(); p != nil && p.snap == snap {
		return p
	}
	p := &snapProg{snap: snap, steps: make([][]snapStep, q.nfa.NumStates)}
	for s, steps := range q.nfa.Steps {
		for _, st := range steps {
			ns := snapStep{any: st.AnyLabel, toClosure: q.nfa.Closure(st.To)}
			if !st.AnyLabel {
				l, ok := snap.LabelID(st.Label)
				if !ok {
					continue // label absent from the graph: dead step
				}
				ns.label = l
			}
			p.steps[s] = append(p.steps[s], ns)
		}
	}
	if q.word != nil {
		p.word = make([]datagraph.Label, 0, len(q.word))
		for _, name := range q.word {
			l, ok := snap.LabelID(name)
			if !ok {
				p.wordDead = true
				break
			}
			p.word = append(p.word, l)
		}
	}
	for _, name := range q.startLabels {
		if l, ok := snap.LabelID(name); ok {
			p.startLabels = append(p.startLabels, l)
		}
	}
	q.progCache.Store(p)
	return p
}

// canSkipStart reports whether u cannot begin any nonempty match and the
// query does not accept the empty path.
func (q *Query) canSkipStart(p *snapProg, u int) bool {
	if q.startAny || q.emptyOK {
		return false
	}
	for _, l := range p.startLabels {
		if p.snap.HasOutLabeled(u, l) {
			return false
		}
	}
	return true
}

// acquireScratch takes a kernel scratch sized for p's snapshot. Only the
// product BFS marks product states; the word and reachability kernels mark
// nodes alone.
func (q *Query) acquireScratch(p *snapProg) *datagraph.Scratch {
	n, product := p.snap.NumNodes(), 0
	if q.kind != KindReachability && q.word == nil {
		product = n * q.nfa.NumStates
	}
	return datagraph.AcquireScratch(n, product, 0)
}

// EvalRange evaluates the query from every start node in [lo, hi), emitting
// each answer pair once. The graph is frozen once (cheap when already
// frozen) and one pooled scratch serves the whole range.
func (q *Query) EvalRange(g *datagraph.Graph, lo, hi int, emit func(u, v int)) {
	p := q.program(g.Freeze())
	sc := q.acquireScratch(p)
	defer sc.Release()
	for u := lo; u < hi; u++ {
		q.evalFromSnap(p, u, sc, func(v int) { emit(u, v) })
	}
}

// evalFromSnap dispatches one start node to the appropriate kernel.
func (q *Query) evalFromSnap(p *snapProg, u int, sc *datagraph.Scratch, emit func(v int)) {
	switch {
	case q.kind == KindReachability:
		q.reachableSnap(p, u, sc, emit)
	case q.word != nil:
		q.wordSnap(p, u, sc, emit)
	default:
		if q.canSkipStart(p, u) {
			return
		}
		q.productSnap(p, u, sc, emit)
	}
}

// productSnap is the product-BFS kernel over interned labels.
func (q *Query) productSnap(p *snapProg, u int, sc *datagraph.Scratch, emit func(v int)) {
	snap := p.snap
	numStates := q.nfa.NumStates
	sc.NextEpoch()
	sc.Queue = sc.Queue[:0]
	push := func(node int32, state int) {
		id := int(node)*numStates + state
		if sc.MarkProduct(id) {
			sc.Queue = append(sc.Queue, int32(id))
		}
	}
	for _, s := range q.nfa.Closure(q.nfa.Start) {
		push(int32(u), s)
	}
	for len(sc.Queue) > 0 {
		id := sc.Queue[len(sc.Queue)-1]
		sc.Queue = sc.Queue[:len(sc.Queue)-1]
		node, state := int(id)/numStates, int(id)%numStates
		if state == q.nfa.Accept && sc.MarkNode(node) {
			emit(node)
		}
		for si := range p.steps[state] {
			st := &p.steps[state][si]
			var targets []int32
			if st.any {
				targets = snap.OutAll(node)
			} else {
				targets = snap.OutLabeled(node, st.label)
			}
			for _, to := range targets {
				for _, c := range st.toClosure {
					push(to, c)
				}
			}
		}
	}
}

// wordSnap walks a fixed interned word level by level with slice frontiers.
func (q *Query) wordSnap(p *snapProg, u int, sc *datagraph.Scratch, emit func(v int)) {
	if p.wordDead {
		return
	}
	if len(p.word) == 0 {
		emit(u)
		return
	}
	snap := p.snap
	sc.Frontier = append(sc.Frontier[:0], int32(u))
	for _, l := range p.word {
		sc.NextEpoch()
		sc.Next = sc.Next[:0]
		for _, node := range sc.Frontier {
			for _, to := range snap.OutLabeled(int(node), l) {
				if sc.MarkNode(int(to)) {
					sc.Next = append(sc.Next, to)
				}
			}
		}
		sc.Frontier, sc.Next = sc.Next, sc.Frontier
		if len(sc.Frontier) == 0 {
			return
		}
	}
	for _, v := range sc.Frontier {
		emit(int(v))
	}
}

// reachableSnap emits every node reachable from u (including u via ε).
func (q *Query) reachableSnap(p *snapProg, u int, sc *datagraph.Scratch, emit func(v int)) {
	snap := p.snap
	sc.NextEpoch()
	sc.Queue = append(sc.Queue[:0], int32(u))
	sc.MarkNode(u)
	for len(sc.Queue) > 0 {
		node := sc.Queue[len(sc.Queue)-1]
		sc.Queue = sc.Queue[:len(sc.Queue)-1]
		emit(int(node))
		for _, to := range snap.OutAll(int(node)) {
			if sc.MarkNode(int(to)) {
				sc.Queue = append(sc.Queue, to)
			}
		}
	}
}
