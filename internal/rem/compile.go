package rem

import (
	"fmt"
	"sort"

	"repro/internal/datagraph"
	"repro/internal/ra"
	"repro/internal/syntax"
)

// Query is a compiled REM query (a memory RPQ in the paper's terminology).
type Query struct {
	expr Expr
	auto *ra.Automaton
	regs map[string]int // variable name → register index
}

// New compiles an REM expression.
func New(e Expr) *Query {
	regs := make(map[string]int)
	for i, v := range Vars(e) {
		regs[v] = i
	}
	b := &ra.Builder{}
	c := &compiler{b: b, regs: regs}
	f := c.compile(e)
	return &Query{expr: e, auto: b.Finish(f.Start, f.Accept), regs: regs}
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

// Automaton exposes the compiled register automaton.
func (q *Query) Automaton() *ra.Automaton { return q.auto }

// String renders the query in concrete syntax.
func (q *Query) String() string { return q.expr.String() }

// Registers returns the variable-to-register assignment, sorted by register.
func (q *Query) Registers() []string {
	out := make([]string, len(q.regs))
	type kv struct {
		name string
		reg  int
	}
	kvs := make([]kv, 0, len(q.regs))
	for n, r := range q.regs {
		kvs = append(kvs, kv{n, r})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].reg < kvs[j].reg })
	for i, e := range kvs {
		out[i] = e.name
	}
	return out
}

// Match reports whether the data path is in L(e): there is a parse
// (e, w, ⊥) ⊢ σ for some final assignment σ.
func (q *Query) Match(w datagraph.DataPath, mode datagraph.CompareMode) bool {
	return q.auto.MatchDataPath(w, mode)
}

// Eval returns the pairs (v, v′) connected by a path π with δ(π) ∈ L(e).
func (q *Query) Eval(g *datagraph.Graph, mode datagraph.CompareMode) *datagraph.PairSet {
	return q.auto.Eval(g, mode)
}

// EvalFrom returns targets reachable from node index u by a matching path.
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

type compiler struct {
	b    *ra.Builder
	regs map[string]int
}

func (c *compiler) cond(cd Cond) ra.Cond {
	switch t := cd.(type) {
	case CAtom:
		r, ok := c.regs[t.Var]
		if !ok {
			// Vars() collects every mentioned variable, so this cannot
			// happen for expressions built by Parse; guard anyway.
			panic(fmt.Sprintf("rem: unknown variable %q", t.Var))
		}
		if t.Neq {
			return ra.Neq{Reg: r}
		}
		return ra.Eq{Reg: r}
	case CAnd:
		return ra.And{L: c.cond(t.L), R: c.cond(t.R)}
	case COr:
		return ra.Or{L: c.cond(t.L), R: c.cond(t.R)}
	default:
		panic("rem: unknown condition node")
	}
}

// compile builds e by the Thompson construction of package ra, adding the
// two operators of REM.
func (c *compiler) compile(e Expr) ra.Frag {
	b := c.b
	switch t := e.(type) {
	case Eps:
		return b.Epsilon()
	case Lit:
		return b.Symbol(t.Label, false)
	case Any:
		return b.Symbol("", true)
	case Concat:
		return b.Concat(len(t.Factors), func(i int) ra.Frag { return c.compile(t.Factors[i]) })
	case Union:
		return b.Union(len(t.Alts), func(i int) ra.Frag { return c.compile(t.Alts[i]) })
	case Plus:
		return b.Plus(c.compile(t.Inner))
	case Star:
		return b.Star(c.compile(t.Inner))
	case Opt:
		return b.Opt(c.compile(t.Inner))
	case Test:
		// (e[c], w, σ) ⊢ σ′ iff (e, w, σ) ⊢ σ′ and σ′, d ⊨ c for the last
		// data value d: an ε-check after the inner fragment.
		f := c.compile(t.Inner)
		a := b.State()
		b.Eps(f.Accept, a, c.cond(t.Cond), nil)
		return ra.Frag{Start: f.Start, Accept: a}
	case Bind:
		// (↓x̄.e, w, σ) ⊢ σ′ iff (e, w, σ_{x̄=d}) ⊢ σ′ for the first data
		// value d: an ε-store before the inner fragment.
		store := make([]int, len(t.Vars))
		for i, v := range t.Vars {
			store[i] = c.regs[v]
		}
		s := b.State()
		f := c.compile(t.Inner)
		b.Eps(s, f.Start, ra.True{}, store)
		return ra.Frag{Start: s, Accept: f.Accept}
	default:
		panic(fmt.Sprintf("rem: unknown expression node %T", e))
	}
}
