// Package rpq implements regular path queries (RPQs) over data graphs
// (Section 2 of Francis & Libkin, PODS'17). An RPQ is a regular expression e
// over the edge alphabet Σ; on a data graph G it returns the pairs of nodes
// connected by a path whose label is in L(e):
//
//	e(G) = {(v, v′) | ∃π : v →π v′ and λ(π) ∈ e}
//
// An RPQ is the zero-register case of the register automata behind REE and
// REM: New compiles e by rex.Compile, the Thompson construction of package
// ra, and every evaluation runs on ra's snapshot kernel, whose
// zero-register path searches (node, state) pairs and walks single words
// and Σ* as plain frontiers. This package keeps the structural classification the mapping
// definitions need (Kind, AsWord).
package rpq

import (
	"fmt"

	"repro/internal/datagraph"
	"repro/internal/ra"
	"repro/internal/rex"
	"repro/internal/syntax"
)

// Query is a compiled RPQ: the expression and its zero-register automaton.
type Query struct {
	expr rex.Regex
	auto *ra.Automaton
	// kind caches the structural classification used by mapping analysis.
	kind Kind
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
	q := &Query{expr: e, auto: rex.Compile(e), kind: KindRegex}
	if w, ok := rex.IsWord(e); ok {
		q.kind = KindWord
		if len(w) == 1 {
			q.kind = KindAtomic
		}
	} else if rex.IsReachability(e) {
		q.kind = KindReachability
	}
	return q
}

// StartLabels returns the set of labels able to begin a nonempty match and
// whether the set is exhaustive (false when an any-label step is reachable
// from the start state); see ra.Automaton.StartLabels.
func (q *Query) StartLabels() ([]string, bool) { return q.auto.StartLabels() }

// AcceptsEmptyPath reports whether ε ∈ L(e), i.e. every node matches
// itself. When false, frontier pruning by StartLabels is complete.
func (q *Query) AcceptsEmptyPath() bool { return q.auto.AcceptsEmptyPath() }

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
func (q *Query) AsWord() ([]string, bool) { return rex.IsWord(q.expr) }

// String renders the query in rex syntax.
func (q *Query) String() string { return q.expr.String() }

// Eval returns e(G): all pairs of node indices connected by a path whose
// label is in L(e). A navigational query ignores data values, so the
// comparison mode passed to the automaton is immaterial.
func (q *Query) Eval(g *datagraph.Graph) *datagraph.PairSet {
	return q.auto.Eval(g, datagraph.MarkedNulls)
}

// EvalFrom returns the nodes v such that (u, v) ∈ e(G), over the graph's
// snapshot. An unfrozen graph is frozen first; after a SetValue-only change
// that is a value-only refresh reusing the cached topology.
func (q *Query) EvalFrom(g *datagraph.Graph, u int) []int {
	return q.auto.EvalFrom(g, u, datagraph.MarkedNulls)
}

// EvalRange evaluates the query from every start node in [lo, hi), emitting
// each answer pair once; see ra.Automaton.EvalRange.
func (q *Query) EvalRange(g *datagraph.Graph, lo, hi int, emit func(u, v int)) {
	q.auto.EvalRange(g, lo, hi, datagraph.MarkedNulls, emit)
}
