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
	return &Query{expr: e, auto: b.Finish(f.start, f.accept)}
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

type frag struct{ start, accept int }

// compile translates the expression into automaton fragments. The register
// for an =/≠ test is its nesting depth: sibling tests reuse registers
// (sound, because fragments execute sequentially), so NumRegs = MaxEqDepth.
func compile(b *ra.Builder, e Expr, depth int) frag {
	switch t := e.(type) {
	case Eps:
		s, a := b.State(), b.State()
		b.Eps(s, a, ra.True{}, nil)
		return frag{s, a}
	case Lit:
		s, a := b.State(), b.State()
		b.Letter(s, a, t.Label, false, ra.True{}, nil)
		return frag{s, a}
	case Any:
		s, a := b.State(), b.State()
		b.Letter(s, a, "", true, ra.True{}, nil)
		return frag{s, a}
	case Concat:
		if len(t.Factors) == 0 {
			return compile(b, Eps{}, depth)
		}
		f0 := compile(b, t.Factors[0], depth)
		start, accept := f0.start, f0.accept
		for _, fct := range t.Factors[1:] {
			nf := compile(b, fct, depth)
			b.Eps(accept, nf.start, ra.True{}, nil)
			accept = nf.accept
		}
		return frag{start, accept}
	case Union:
		s, a := b.State(), b.State()
		for _, alt := range t.Alts {
			f := compile(b, alt, depth)
			b.Eps(s, f.start, ra.True{}, nil)
			b.Eps(f.accept, a, ra.True{}, nil)
		}
		return frag{s, a}
	case Plus:
		s, a := b.State(), b.State()
		f := compile(b, t.Inner, depth)
		b.Eps(s, f.start, ra.True{}, nil)
		b.Eps(f.accept, f.start, ra.True{}, nil)
		b.Eps(f.accept, a, ra.True{}, nil)
		return frag{s, a}
	case Star:
		s, a := b.State(), b.State()
		f := compile(b, t.Inner, depth)
		b.Eps(s, a, ra.True{}, nil)
		b.Eps(s, f.start, ra.True{}, nil)
		b.Eps(f.accept, f.start, ra.True{}, nil)
		b.Eps(f.accept, a, ra.True{}, nil)
		return frag{s, a}
	case Opt:
		s, a := b.State(), b.State()
		f := compile(b, t.Inner, depth)
		b.Eps(s, a, ra.True{}, nil)
		b.Eps(s, f.start, ra.True{}, nil)
		b.Eps(f.accept, a, ra.True{}, nil)
		return frag{s, a}
	case Eq:
		return compileTest(b, t.Inner, depth, false)
	case Neq:
		return compileTest(b, t.Inner, depth, true)
	default:
		panic(fmt.Sprintf("ree: unknown expression node %T", e))
	}
}

func compileTest(b *ra.Builder, inner Expr, depth int, neq bool) frag {
	s, a := b.State(), b.State()
	r := depth
	f := compile(b, inner, depth+1)
	// On entry, store the current (first) data value of the subpath.
	b.Eps(s, f.start, ra.True{}, []int{r})
	// On exit, compare the current (last) data value against the register.
	var cond ra.Cond = ra.Eq{Reg: r}
	if neq {
		cond = ra.Neq{Reg: r}
	}
	b.Eps(f.accept, a, cond, nil)
	return frag{s, a}
}
