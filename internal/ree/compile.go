package ree

import (
	"fmt"

	"repro/internal/datagraph"
	"repro/internal/ra"
	"repro/internal/syntax"
)

// Query is a compiled REE query: the AST plus its register automaton. REE
// queries are the equality RPQs of the paper.
type Query struct {
	expr Expr
	auto *ra.Automaton
}

// New compiles an REE expression into a query.
func New(e Expr) *Query {
	b := &ra.Builder{}
	f := compile(b, e, 0)
	return &Query{expr: e, auto: b.Finish(f.Start, f.Accept)}
}

// ParseQuery parses and compiles the concrete syntax.
func ParseQuery(s string) (*Query, error) {
	e, err := Parse(s)
	if err != nil {
		return nil, err
	}
	return New(e), nil
}

// MustParseQuery is ParseQuery that panics on error.
func MustParseQuery(s string) *Query { return syntax.Must(ParseQuery(s)) }

// Expr returns the AST.
func (q *Query) Expr() Expr { return q.expr }

// Automaton exposes the compiled register automaton (for experiments).
func (q *Query) Automaton() *ra.Automaton { return q.auto }

// String renders the query in concrete syntax.
func (q *Query) String() string { return q.expr.String() }

// Match reports whether the data path is in L(e), via the register
// automaton.
func (q *Query) Match(w datagraph.DataPath, mode datagraph.CompareMode) bool {
	return q.auto.MatchDataPath(w, mode)
}

// Eval returns the pairs (v, v′) connected by a path π with δ(π) ∈ L(e).
func (q *Query) Eval(g *datagraph.Graph, mode datagraph.CompareMode) *datagraph.PairSet {
	return q.auto.Eval(g, mode)
}

// EvalFrom returns the targets reachable from node index u by a matching
// path.
func (q *Query) EvalFrom(g *datagraph.Graph, u int, mode datagraph.CompareMode) []int {
	return q.auto.EvalFrom(g, u, mode)
}

// EvalRange evaluates from every start node in [lo, hi) over the graph's
// interned snapshot, sharing scratch across the range; see
// ra.Automaton.EvalRange.
func (q *Query) EvalRange(g *datagraph.Graph, lo, hi int, mode datagraph.CompareMode, emit func(u, v int)) {
	q.auto.EvalRange(g, lo, hi, mode, emit)
}

// StartLabels returns a superset of the labels able to begin a nonempty
// match and whether it is exhaustive; see ra.Automaton.StartLabels.
func (q *Query) StartLabels() ([]string, bool) { return q.auto.StartLabels() }

// AcceptsEmptyPath reports whether the query may accept a single-node path;
// see ra.Automaton.AcceptsEmptyPath.
func (q *Query) AcceptsEmptyPath() bool { return q.auto.AcceptsEmptyPath() }

// compile builds e by the Thompson construction of package ra, adding the
// two operators of REE. The register for an =/≠ test is its nesting depth:
// sibling tests reuse registers (sound, because fragments execute
// sequentially), so NumRegs = MaxEqDepth.
func compile(b *ra.Builder, e Expr, depth int) ra.Frag {
	switch t := e.(type) {
	case Eps:
		return b.Epsilon()
	case Lit:
		return b.Symbol(t.Label, false)
	case Any:
		return b.Symbol("", true)
	case Concat:
		return b.Concat(len(t.Factors), func(i int) ra.Frag { return compile(b, t.Factors[i], depth) })
	case Union:
		return b.Union(len(t.Alts), func(i int) ra.Frag { return compile(b, t.Alts[i], depth) })
	case Plus:
		return b.Plus(compile(b, t.Inner, depth))
	case Star:
		return b.Star(compile(b, t.Inner, depth))
	case Opt:
		return b.Opt(compile(b, t.Inner, depth))
	case Eq:
		return compileTest(b, t.Inner, depth, ra.Eq{Reg: depth})
	case Neq:
		return compileTest(b, t.Inner, depth, ra.Neq{Reg: depth})
	default:
		panic(fmt.Sprintf("ree: unknown expression node %T", e))
	}
}

// compileTest stores the first data value of the subpath on entry and
// tests the last one against it on exit.
func compileTest(b *ra.Builder, inner Expr, depth int, test ra.Cond) ra.Frag {
	s, a := b.State(), b.State()
	f := compile(b, inner, depth+1)
	b.Eps(s, f.Start, ra.True{}, []int{depth})
	b.Eps(f.Accept, a, test, nil)
	return ra.Frag{Start: s, Accept: a}
}
