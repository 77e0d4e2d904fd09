// Package rpq implements regular path queries (RPQs) over data graphs
// (Section 2 of Francis & Libkin, PODS'17). An RPQ is a regular expression e
// over the edge alphabet Σ; on a data graph G it returns the pairs of nodes
// connected by a path whose label is in L(e):
//
//	e(G) = {(v, v′) | ∃π : v →π v′ and λ(π) ∈ e}
//
// Evaluation uses the product of the graph with the Thompson NFA of e,
// explored by BFS over the graph's frozen snapshot — the textbook
// NLogspace-style procedure. Word RPQs and atomic RPQs (the building blocks
// of relational and LAV mappings, Definitions 1 and 3) get dedicated fast
// paths.
package rpq

import (
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/datagraph"
	"repro/internal/rex"
	"repro/internal/syntax"
)

// Query is a compiled RPQ.
type Query struct {
	expr rex.Regex
	nfa  *rex.NFA
	word []string // non-nil iff the expression denotes a single word
	// kind caches the structural classification used by mapping analysis.
	kind Kind
	// Start-frontier metadata, computed once by New (see StartLabels).
	startLabels []string
	startAny    bool
	emptyOK     bool

	// progCache holds the NFA lowered onto the most recent graph snapshot
	// (step labels interned, dead steps dropped); see snapshot.go.
	progCache atomic.Pointer[snapProg]
}

// Kind classifies RPQs the way the paper's mapping definitions do.
type Kind int

const (
	// KindRegex is a general regular expression.
	KindRegex Kind = iota
	// KindWord is a word RPQ (single word w ∈ Σ*), the right-hand-side
	// class of relational mappings (Definition 3).
	KindWord
	// KindAtomic is a single letter a ∈ Σ, the left-hand-side class of LAV
	// mappings and both sides of LAV/GAV rules.
	KindAtomic
	// KindReachability is Σ*, the unconstrained reachability query of the
	// relational/reachability mappings in Theorem 1.
	KindReachability
)

func (k Kind) String() string {
	switch k {
	case KindWord:
		return "word"
	case KindAtomic:
		return "atomic"
	case KindReachability:
		return "reachability"
	default:
		return "regex"
	}
}

// New compiles a regular expression into an RPQ.
func New(e rex.Regex) *Query {
	q := &Query{expr: e, nfa: rex.Compile(e), kind: KindRegex}
	if w, ok := rex.IsWord(e); ok {
		q.word = w
		q.kind = KindWord
		if len(w) == 1 {
			q.kind = KindAtomic
		}
	} else if rex.IsReachability(e) {
		q.kind = KindReachability
	}
	labelSet := map[string]struct{}{}
	for _, s := range q.nfa.Closure(q.nfa.Start) {
		if s == q.nfa.Accept {
			q.emptyOK = true
		}
		for _, step := range q.nfa.Steps[s] {
			if step.AnyLabel {
				q.startAny = true
				continue
			}
			labelSet[step.Label] = struct{}{}
		}
	}
	for l := range labelSet {
		q.startLabels = append(q.startLabels, l)
	}
	sort.Strings(q.startLabels)
	return q
}

// StartLabels returns the set of labels able to begin a nonempty match and
// whether the set is exhaustive (false when an any-label step is reachable
// from the start state). The snapshot kernel uses it to skip start nodes
// that cannot match.
func (q *Query) StartLabels() ([]string, bool) { return q.startLabels, !q.startAny }

// AcceptsEmptyPath reports whether ε ∈ L(e), i.e. every node matches
// itself. When false, frontier pruning by StartLabels is complete.
func (q *Query) AcceptsEmptyPath() bool { return q.emptyOK }

// Parse compiles the rex concrete syntax into an RPQ.
func Parse(s string) (*Query, error) {
	e, err := rex.Parse(s)
	if err != nil {
		return nil, fmt.Errorf("rpq: %w", err)
	}
	return New(e), nil
}

// MustParse is Parse that panics on error.
func MustParse(s string) *Query { return syntax.Must(Parse(s)) }

// Atomic returns the atomic RPQ for label a.
func Atomic(a string) *Query { return New(rex.Lit{Label: a}) }

// Word returns the word RPQ for w = a₁…aₙ.
func Word(labels ...string) *Query { return New(rex.Word(labels...)) }

// Reachability returns the RPQ Σ*.
func Reachability() *Query { return New(rex.Reachability()) }

// Expr returns the underlying regular expression.
func (q *Query) Expr() rex.Regex { return q.expr }

// Kind returns the structural classification.
func (q *Query) Kind() Kind { return q.kind }

// AsWord returns the word and true if the query is a word RPQ.
func (q *Query) AsWord() ([]string, bool) {
	if q.word == nil {
		return nil, false
	}
	return append([]string(nil), q.word...), true
}

// String renders the query in rex syntax.
func (q *Query) String() string { return q.expr.String() }

// Eval returns e(G): all pairs of node indices connected by a path whose
// label is in L(e). The graph is frozen once and every start node runs
// through the interned snapshot kernel with shared scratch.
func (q *Query) Eval(g *datagraph.Graph) *datagraph.PairSet {
	n := g.NumNodes()
	out := datagraph.NewPairSetSized(n)
	q.EvalRange(g, 0, n, out.Add)
	return out
}

// EvalFrom returns the nodes v such that (u, v) ∈ e(G), by BFS over the
// product of G with the query NFA on the graph's snapshot. An unfrozen
// graph is frozen first; after a SetValue-only change that is a value-only
// refresh reusing the cached topology.
func (q *Query) EvalFrom(g *datagraph.Graph, u int) []int {
	p := q.program(g.Freeze())
	sc := q.acquireScratch(p)
	defer sc.Release()
	var out []int
	q.evalFromSnap(p, u, sc, func(v int) { out = append(out, v) })
	return out
}

// Witness returns a path from u to v whose label is accepted by the query,
// if one exists. It is used by solution builders that must materialise the
// paths promised by mapping rules, and by tests. The returned path is
// shortest in the number of edges.
func (q *Query) Witness(g *datagraph.Graph, u, v int) (datagraph.Path, bool) {
	p := q.program(g.Freeze())
	numStates := q.nfa.NumStates
	type prev struct {
		id    int // predecessor product-state id, -1 for roots
		label datagraph.Label
	}
	parents := make(map[int]prev)
	var queue []int
	push := func(node, state, from int, label datagraph.Label) {
		id := node*numStates + state
		if _, dup := parents[id]; !dup {
			parents[id] = prev{id: from, label: label}
			queue = append(queue, id)
		}
	}
	for _, s := range q.nfa.Closure(q.nfa.Start) {
		push(u, s, -1, datagraph.NoLabel)
	}
	// BFS (queue processed in FIFO order) so the witness is shortest.
	for i := 0; i < len(queue); i++ {
		id := queue[i]
		node, state := id/numStates, id%numStates
		if node == v && state == q.nfa.Accept {
			// Every non-root parent edge corresponds to one graph edge, so
			// the chain of parents spells the path in reverse.
			var revNodes []int
			var revLabels []string
			for cur := id; ; {
				revNodes = append(revNodes, cur/numStates)
				pr := parents[cur]
				if pr.id == -1 {
					break
				}
				revLabels = append(revLabels, p.snap.LabelName(pr.label))
				cur = pr.id
			}
			n, m := len(revNodes), len(revLabels)
			nodes := make([]int, n)
			labels := make([]string, m)
			for i, x := range revNodes {
				nodes[n-1-i] = x
			}
			for i, l := range revLabels {
				labels[m-1-i] = l
			}
			return datagraph.Path{Nodes: nodes, Labels: labels}, true
		}
		for _, st := range p.steps[state] {
			if st.any {
				p.snap.EachOut(node, func(l datagraph.Label, to int32) {
					for _, c := range st.toClosure {
						push(int(to), c, id, l)
					}
				})
				continue
			}
			for _, to := range p.snap.OutLabeled(node, st.label) {
				for _, c := range st.toClosure {
					push(int(to), c, id, st.label)
				}
			}
		}
	}
	return datagraph.Path{}, false
}
