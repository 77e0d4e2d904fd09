package rpq

import (
	"repro/internal/datagraph"
)

// This file is the shard-local evaluation kernel behind the engine's
// boundary-exchange evaluator: the product BFS of snapshot.go generalised
// to (a) start from an arbitrary seed set of (node, state) product pairs
// and (b) stop at designated boundary nodes, reporting the product states
// that reached them instead of expanding further. The engine runs one such
// kernel per shard fragment and exchanges the reported (node, state) pairs
// with the owning shards until no frontier grows.

// Seed is one (fragment-local node, NFA state) product pair. Exchange seeds
// carry the concrete state recorded at the boundary — ε-closure was already
// applied when the state was first pushed, so re-seeding it verbatim on the
// owning shard resumes the exact product BFS the boundary interrupted.
type Seed struct {
	Node  int32
	State int32
}

// NumStates returns the size of the compiled NFA's state space — the
// second dimension of the sharded kernels' product space.
func (q *Query) NumStates() int { return q.nfa.NumStates }

// StartStates returns the ε-closure of the NFA start state. Seeding a node
// with every start state is how a fresh (non-exchange) traversal begins.
func (q *Query) StartStates() []int { return q.nfa.Closure(q.nfa.Start) }

// ShardProg is the query lowered onto one fragment graph. Unlike the
// per-query program cache (which holds a single entry), sharded evaluation
// keeps one ShardProg per fragment alive for the whole exchange. It is
// immutable: every EvalSeeds call takes its own pooled scratch.
type ShardProg struct {
	q *Query
	p *snapProg
}

// LowerOnto freezes g (cheap when already frozen) and lowers the query onto
// its snapshot.
func (q *Query) LowerOnto(g *datagraph.Graph) *ShardProg {
	return &ShardProg{q: q, p: q.buildProg(g.Freeze())}
}

// CanSkipStart reports whether fragment-local node u cannot begin any
// nonempty match and the query does not accept the empty path. Sound for
// owned nodes only: an owned node's complete out-adjacency lives in its
// fragment, a ghost's does not.
func (sp *ShardProg) CanSkipStart(u int) bool { return sp.q.canSkipStart(sp.p, u) }

// CancelCheckEvery is the chunk granularity of cooperative cancellation
// inside the product BFS: EvalSeeds polls its cancel hook once per this
// many popped product pairs, so a canceled query releases a shard worker
// after at most one chunk of expansion work — milliseconds on any
// realistic fragment — instead of running its traversal to completion.
const CancelCheckEvery = 1024

// EvalSeeds runs the product BFS over the fragment from the given seeds.
// stop marks boundary (ghost) nodes: every product pair reaching one is
// reported through exit — exactly once per (node, state) — and not expanded
// locally, because the node's out-adjacency belongs to the owning shard.
// accept fires once per node that reaches the NFA accept state, including
// stop nodes (a path may legitimately end on a ghost). Seed states are used
// verbatim; callers seeding a fresh traversal must pass the closed start
// states (StartStates).
//
// cancel, when non-nil, is polled every CancelCheckEvery popped pairs;
// once it reports true the traversal stops immediately and EvalSeeds
// returns false — its partial accept/exit reports must be discarded. A
// completed traversal returns true.
func (sp *ShardProg) EvalSeeds(seeds []Seed, stop func(node int) bool, accept func(node int), exit func(node, state int), cancel func() bool) bool {
	q, p := sp.q, sp.p
	numStates := q.nfa.NumStates
	n := p.snap.NumNodes()
	sc := datagraph.AcquireScratch(n, n*numStates, 0)
	defer sc.Release()
	sc.NextEpoch()
	sc.Queue = sc.Queue[:0]
	push := func(node int32, state int) {
		id := int(node)*numStates + state
		if sc.MarkProduct(id) {
			sc.Queue = append(sc.Queue, int32(id))
		}
	}
	for _, s := range seeds {
		push(s.Node, int(s.State))
	}
	popped := 0
	for len(sc.Queue) > 0 {
		if cancel != nil {
			popped++
			if popped >= CancelCheckEvery {
				popped = 0
				if cancel() {
					return false
				}
			}
		}
		id := sc.Queue[len(sc.Queue)-1]
		sc.Queue = sc.Queue[:len(sc.Queue)-1]
		node, state := int(id)/numStates, int(id)%numStates
		if state == q.nfa.Accept && sc.MarkNode(node) {
			accept(node)
		}
		if stop(node) {
			exit(node, state)
			continue
		}
		for si := range p.steps[state] {
			st := &p.steps[state][si]
			var targets []int32
			if st.any {
				targets = p.snap.OutAll(node)
			} else {
				targets = p.snap.OutLabeled(node, st.label)
			}
			for _, to := range targets {
				for _, c := range st.toClosure {
					push(to, c)
				}
			}
		}
	}
	return true
}
