package ra

import (
	"slices"

	"repro/internal/datagraph"
)

// This file is the kernel's zero-register path. Without registers every
// condition is true and no move stores, so a configuration is just a
// (state, node) pair, which the search stamps in the scratch's product
// marks instead of hashing a tuple. Finish folds the ε-moves into the
// letter steps: each step carries the ε-closure of its target, pruned to
// the live states (those with a letter step, and Accept) and numbered
// densely, so the product holds no ε-only state. Two shapes get searches of
// their own, chosen from the automaton, never by the caller: a single word
// walks level by level with node frontiers, and Σ* is plain reachability.

// zeroForm is a zero-register automaton as letter steps between live
// states; the steps of live state s are steps[first[s]:first[s+1]].
// The pruned closures are stored end to end in closures.
type zeroForm struct {
	start    []int32 // the pruned ε-closure of Start
	accept   int32   // Accept's live-state number
	first    []int32
	steps    []zeroStep
	closures []int32
	shape    shape
	word     []string // shapeWord's labels
}

// zeroStep is a letter step; closures[lo:hi] is the pruned ε-closure of
// its target.
type zeroStep struct {
	label  string
	any    bool
	lo, hi int32
}

type shape uint8

const (
	shapeProduct shape = iota
	shapeWord          // the automaton accepts exactly one word
	shapeReach         // the automaton accepts every word (Σ*)
)

// progStep is a zeroStep lowered onto a snapshot.
type progStep struct {
	label   datagraph.Label
	any     bool
	closure []int32
}

// newZeroForm builds the letter-step form of a zero-register automaton;
// seen and stack are scratch for the ε-closures.
func newZeroForm(a *Automaton, seen []bool, stack []int) *zeroForm {
	live := make([]int32, a.NumStates) // live-state number + 1, 0 if not live
	numLive, numSteps := int32(0), 0
	for s, ts := range a.Trans {
		letters := 0
		for _, t := range ts {
			if !t.Eps {
				letters++
			}
		}
		if letters > 0 || s == a.Accept {
			numLive++
			live[s] = numLive
		}
		numSteps += letters
	}
	z := &zeroForm{
		accept:   live[a.Accept] - 1,
		first:    make([]int32, numLive+1),
		steps:    make([]zeroStep, 0, numSteps),
		closures: make([]int32, 0, int(numLive)+numSteps),
	}
	// closure appends the pruned ε-closure of from to z.closures and
	// returns its bounds.
	closure := func(from int) (lo, hi int32) {
		lo = int32(len(z.closures))
		stack = a.closure(from, seen, stack, func(s int) {
			if live[s] > 0 {
				z.closures = append(z.closures, live[s]-1)
			}
		})
		return lo, int32(len(z.closures))
	}
	startLo, startHi := closure(a.Start)
	for s, ts := range a.Trans {
		if live[s] == 0 {
			continue
		}
		for _, t := range ts {
			if !t.Eps {
				lo, hi := closure(t.To)
				z.steps = append(z.steps, zeroStep{label: t.Label, any: t.AnyLabel, lo: lo, hi: hi})
			}
		}
		z.first[live[s]] = int32(len(z.steps))
	}
	z.start = z.closures[startLo:startHi]
	z.classify()
	return z
}

// classify picks the search for the automaton's shape.
func (z *zeroForm) classify() {
	// Σ*: the start closure holds Accept, and one of its states has an
	// any-label step back to a superset of it. Reading any edge then keeps
	// every state of the start closure, so every path ends accepted.
	if slices.Contains(z.start, z.accept) {
		for _, s := range z.start {
			for i := z.first[s]; i < z.first[s+1]; i++ {
				if st := &z.steps[i]; st.any && containsAll(z.closureOf(st), z.start) {
					z.shape = shapeReach
					return
				}
			}
		}
	}
	// One word: one state at a time, each with a single labelled step,
	// until Accept with no step. A word visits each live state once at most.
	cur := z.start
	var word []string
	for range len(z.first) {
		if len(cur) != 1 {
			return
		}
		steps := z.steps[z.first[cur[0]]:z.first[cur[0]+1]]
		if cur[0] == z.accept {
			if len(steps) == 0 {
				z.shape, z.word = shapeWord, word
			}
			return
		}
		if len(steps) != 1 || steps[0].any {
			return
		}
		word = append(word, steps[0].label)
		cur = z.closureOf(&steps[0])
	}
}

func (z *zeroForm) closureOf(st *zeroStep) []int32 { return z.closures[st.lo:st.hi] }

func containsAll(set, sub []int32) bool {
	for _, x := range sub {
		if !slices.Contains(set, x) {
			return false
		}
	}
	return true
}

// lower fills p with what the automaton's search reads: the steps interned
// onto p's snapshot, those on labels absent from it dropped, or the
// interned word. Reachability reads neither.
func (z *zeroForm) lower(p *prog) {
	switch z.shape {
	case shapeReach:
		return
	case shapeWord:
		p.word = make([]datagraph.Label, len(z.word))
		for i, name := range z.word {
			l, ok := p.snap.LabelID(name)
			p.word[i], p.wordDead = l, p.wordDead || !ok
		}
		return
	}
	p.first = make([]int32, len(z.first))
	p.steps = make([]progStep, 0, len(z.steps))
	for s := range len(z.first) - 1 {
		for i := z.first[s]; i < z.first[s+1]; i++ {
			st := &z.steps[i]
			ps := progStep{any: st.any, closure: z.closureOf(st)}
			if !st.any {
				l, ok := p.snap.LabelID(st.label)
				if !ok {
					continue // label absent from the graph: dead step
				}
				ps.label = l
			}
			p.steps = append(p.steps, ps)
		}
		p.first[s+1] = int32(len(p.steps))
	}
}

// product is the search over (node, state) pairs, stamped as
// node·states+state.
func (z *zeroForm) product(p *prog, u int, sc *datagraph.Scratch, emit func(u, v int)) {
	snap := p.snap
	numStates := len(p.first) - 1
	sc.NextEpoch()
	queue := sc.Queue[:0]
	for _, s := range z.start {
		if id := u*numStates + int(s); sc.MarkProduct(id) {
			queue = append(queue, int32(id))
		}
	}
	for len(queue) > 0 {
		id := int(queue[len(queue)-1])
		queue = queue[:len(queue)-1]
		node, state := id/numStates, id%numStates
		if int32(state) == z.accept && sc.MarkNode(node) {
			emit(u, node)
		}
		for si := p.first[state]; si < p.first[state+1]; si++ {
			st := &p.steps[si]
			var targets []int32
			if st.any {
				targets = snap.OutAll(node)
			} else {
				targets = snap.OutLabeled(node, st.label)
			}
			for _, to := range targets {
				base := int(to) * numStates
				for _, c := range st.closure {
					if sc.MarkProduct(base + int(c)) {
						queue = append(queue, int32(base+int(c)))
					}
				}
			}
		}
	}
	sc.Queue = queue
}

// walkWord follows the interned word level by level with node frontiers.
func (p *prog) walkWord(u int, sc *datagraph.Scratch, emit func(u, v int)) {
	if p.wordDead {
		return
	}
	sc.Frontier = append(sc.Frontier[:0], int32(u))
	for _, l := range p.word {
		sc.NextEpoch()
		sc.Next = sc.Next[:0]
		for _, node := range sc.Frontier {
			for _, to := range p.snap.OutLabeled(int(node), l) {
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
		emit(u, int(v))
	}
}

// reach emits every node reachable from u, u included.
func (p *prog) reach(u int, sc *datagraph.Scratch, emit func(u, v int)) {
	snap := p.snap
	sc.NextEpoch()
	sc.Queue = append(sc.Queue[:0], int32(u))
	sc.MarkNode(u)
	for len(sc.Queue) > 0 {
		node := sc.Queue[len(sc.Queue)-1]
		sc.Queue = sc.Queue[:len(sc.Queue)-1]
		emit(u, int(node))
		for _, to := range snap.OutAll(int(node)) {
			if sc.MarkNode(int(to)) {
				sc.Queue = append(sc.Queue, to)
			}
		}
	}
}
