package core

import (
	"context"
	"slices"

	"repro/internal/datagraph"
	"repro/internal/rpq"
)

// Query is a binary query over target data graphs, evaluated under a
// data-comparison mode. ree.Query, rem.Query and the RPQ adapter below all
// implement it.
type Query interface {
	Eval(g *datagraph.Graph, mode datagraph.CompareMode) *datagraph.PairSet
}

// NavQuery adapts a purely navigational RPQ (which ignores data values and
// hence the comparison mode) to the Query interface.
type NavQuery struct{ Q *rpq.Query }

// Eval implements Query.
func (n NavQuery) Eval(g *datagraph.Graph, _ datagraph.CompareMode) *datagraph.PairSet {
	return n.Q.Eval(g)
}

// EvalFrom implements FromEvaluator, so navigational RPQs can be sharded by
// start node exactly like REE/REM queries.
func (n NavQuery) EvalFrom(g *datagraph.Graph, u int, _ datagraph.CompareMode) []int {
	return n.Q.EvalFrom(g, u)
}

// EvalRange implements RangeEvaluator: snapshot evaluation over a start
// frontier chunk with shared scratch.
func (n NavQuery) EvalRange(g *datagraph.Graph, lo, hi int, _ datagraph.CompareMode, emit func(u, v int)) {
	n.Q.EvalRange(g, lo, hi, emit)
}

// StartLabels exposes the RPQ's frontier metadata for schedulers.
func (n NavQuery) StartLabels() ([]string, bool) { return n.Q.StartLabels() }

// AcceptsEmptyPath exposes the RPQ's frontier metadata for schedulers.
func (n NavQuery) AcceptsEmptyPath() bool { return n.Q.AcceptsEmptyPath() }

// FilterNullAnswers keeps the pairs of res whose endpoints are non-null
// nodes of u, as Answers — the final filtering step of the Theorem 4
// algorithm, shared between the sequential path and the parallel engine.
func FilterNullAnswers(u *datagraph.Graph, res *datagraph.PairSet) *Answers {
	out := NewAnswers()
	res.Each(func(p datagraph.Pair) {
		from, to := u.Node(p.From), u.Node(p.To)
		if from.IsNullNode() || to.IsNullNode() {
			return
		}
		out.Add(Answer{From: from, To: to})
	})
	return out
}

// CertainNull computes 2ⁿ_M(Q, Gs), the certain answers over target graphs
// with SQL-null nodes (Theorem 4): evaluate Q under SQL-null semantics on
// the memoized universal solution and keep only tuples without null nodes.
// Exact for queries preserved under homomorphisms (all data RPQs,
// Proposition 6); in general an underapproximation of 2_M(Q, Gs) (Section
// 7). It is the sequential reference the parallel engine is checked
// against.
func (mat *Materialization) CertainNull(ctx context.Context, q Query) (*Answers, error) {
	u, err := mat.UniversalCtx(ctx)
	if err != nil {
		return nil, err
	}
	return FilterNullAnswers(u, q.Eval(u, datagraph.SQLNulls)), nil
}

// CertainLeastInformative computes 2_M(Q, Gs) for REM= and REE= queries
// (Theorem 5): evaluate Q on the memoized least informative solution and
// keep only tuples over dom(M, Gs). The caller is responsible for Q being
// equality-only (rem.IsEqualityOnly / ree.IsEqualityOnly); for queries with
// inequalities the result may overapproximate.
func (mat *Materialization) CertainLeastInformative(ctx context.Context, q Query) (*Answers, error) {
	li, err := mat.LeastInformativeCtx(ctx)
	if err != nil {
		return nil, err
	}
	return FilterDomAnswers(li, mat.DomIDs(), q.Eval(li, datagraph.MarkedNulls)), nil
}

// FilterDomAnswers keeps the pairs of res whose endpoints lie in dom, as
// Answers — the final filtering step of the Theorem 5 algorithm, shared
// between the sequential path, the parallel engine and sessions.
func FilterDomAnswers(g *datagraph.Graph, dom map[datagraph.NodeID]struct{}, res *datagraph.PairSet) *Answers {
	out := NewAnswers()
	res.Each(func(p datagraph.Pair) {
		from, to := g.Node(p.From), g.Node(p.To)
		if _, ok := dom[from.ID]; !ok {
			return
		}
		if _, ok := dom[to.ID]; !ok {
			return
		}
		out.Add(Answer{From: from, To: to})
	})
	return out
}

// ExactOptions bounds the exponential search of CertainExact.
type ExactOptions struct {
	// MaxNulls caps the number of null nodes in the universal solution;
	// beyond it CertainExact refuses (the search is exponential in this
	// number, mirroring the coNP bound of Theorem 2). Default 10.
	MaxNulls int
}

// DefaultExactOptions returns the default bounds.
func DefaultExactOptions() ExactOptions { return ExactOptions{MaxNulls: 10} }

// Normalized validates the options once, up front: a negative MaxNulls is
// ErrBadOptions, zero selects the default. The exact searches call it at
// entry, so their loops never re-check.
func (o ExactOptions) Normalized() (ExactOptions, error) {
	if o.MaxNulls < 0 {
		return o, badOptionf("MaxNulls %d is negative", o.MaxNulls)
	}
	if o.MaxNulls == 0 {
		o.MaxNulls = DefaultExactOptions().MaxNulls
	}
	return o, nil
}

// CertainExact computes 2_M(Q, Gs) exactly for relational GSMs and queries
// closed under value-preserving homomorphisms (all data RPQs): it
// intersects Q, restricted to dom(M, Gs), over every canonical value
// specialization of the universal solution that specializations
// enumerates, and stops as soon as the intersection is empty. This realizes
// the coNP upper bound of Theorem 2/Proposition 2 as a deterministic
// exponential search and serves as the ground-truth oracle for the
// tractable algorithms.
//
// The universal solution, dom and the source value pool come from the
// memoized artifacts, so repeated exact queries against one (M, Gs) pay for
// solution building once. The search specializes a clone of the shared
// universal solution, making concurrent calls safe, and honors ctx between
// specializations (returning an ErrCanceled wrap).
func (mat *Materialization) CertainExact(ctx context.Context, q Query, opts ExactOptions) (*Answers, error) {
	opts, err := opts.Normalized()
	if err != nil {
		return nil, err
	}
	u, err := mat.UniversalCtx(ctx)
	if err != nil {
		return nil, err
	}
	nulls, err := mat.UniversalNullsCtx(ctx)
	if err != nil {
		return nil, err
	}
	dom := mat.DomIDs()
	var result *Answers
	err = specializations(ctx, mat.gs, mat.SourceValues(), u, nulls, opts.MaxNulls, func(spec *datagraph.Graph) bool {
		// dom nodes keep their source values, so the answers report them.
		ans := FilterDomAnswers(spec, dom, q.Eval(spec, datagraph.MarkedNulls))
		if result == nil {
			result = ans
		} else {
			result.Intersect(ans)
		}
		return result.Len() > 0
	})
	if err != nil {
		return nil, err
	}
	if result == nil {
		result = NewAnswers()
	}
	return result, nil
}

// specializations calls visit on every canonical value specialization of
// the nulls of g. Each null takes a value of values, the fresh value of an
// already-open class, or opens the next class, so classes are enumerated as
// set partitions in restricted-growth form and no two specializations
// differ only by renaming fresh values (drawn from a pool that avoids gs's
// values). More than maxNulls nulls is ErrBudgetExceeded, since the search
// is exponential in their number. One clone of g is specialized in place
// and handed to visit; ctx is polled before every specialization, and the
// search stops as soon as visit returns false.
func specializations(ctx context.Context, gs *datagraph.Graph, values []datagraph.Value,
	g *datagraph.Graph, nulls []datagraph.NodeID, maxNulls int, visit func(spec *datagraph.Graph) bool) error {

	if len(nulls) > maxNulls {
		return budgetErrf("core: %d null nodes exceed the exact-search budget of %d", len(nulls), maxNulls)
	}
	fresh := freshValues(gs, "_adv", len(nulls))
	spec := g.Clone()
	idx := make([]int, len(nulls))
	for i, id := range nulls {
		idx[i], _ = spec.IndexOf(id)
	}
	var err error
	var rec func(i, open int) bool
	rec = func(i, open int) bool {
		if i == len(nulls) {
			if err = ctx.Err(); err != nil {
				err = Canceled(err)
				return false
			}
			return visit(spec)
		}
		for _, v := range values {
			spec.SetValue(idx[i], v)
			if !rec(i+1, open) {
				return false
			}
		}
		for c := 0; c <= open; c++ {
			spec.SetValue(idx[i], fresh[c])
			if !rec(i+1, max(open, c+1)) {
				return false
			}
		}
		return true
	}
	rec(0, 0)
	return err
}

// FromEvaluator is an optional fast path implemented by queries that can
// evaluate from a single start node (ree.Query and rem.Query do).
type FromEvaluator interface {
	EvalFrom(g *datagraph.Graph, u int, mode datagraph.CompareMode) []int
}

// RangeEvaluator is the batched refinement of FromEvaluator: evaluate every
// start node in [lo, hi) against the graph's interned snapshot, reusing
// scratch across the whole chunk and emitting each answer pair once. The
// engine shards the start frontier of exactly these queries.
// ree.Query, rem.Query and NavQuery implement it.
type RangeEvaluator interface {
	EvalRange(g *datagraph.Graph, lo, hi int, mode datagraph.CompareMode, emit func(u, v int))
}

// CertainExactPair decides whether the single pair (from, to) is a certain
// answer, with the same semantics and search as CertainExact but evaluating
// each specialization only from the asked node and stopping at the first
// counterexample specialization. This is the oracle used by the
// coNP-hardness experiments, where only one pair matters.
func (mat *Materialization) CertainExactPair(ctx context.Context, q Query,
	from, to datagraph.NodeID, opts ExactOptions) (bool, error) {

	opts, err := opts.Normalized()
	if err != nil {
		return false, err
	}
	u, err := mat.UniversalCtx(ctx)
	if err != nil {
		return false, err
	}
	dom := mat.DomIDs()
	if _, ok := dom[from]; !ok {
		return false, nil
	}
	if _, ok := dom[to]; !ok {
		return false, nil
	}
	nulls, err := mat.UniversalNullsCtx(ctx)
	if err != nil {
		return false, err
	}
	return mat.pairCertain(ctx, u, nulls, opts.MaxNulls, q, from, to)
}

// pairCertain reports whether (from, to) ∈ Q(σ(g)) for every canonical
// specialization σ of the nulls of g, stopping at the first counterexample.
// g is the universal solution for CertainExactPair and a candidate solution
// for Proposition 5; from and to must be nodes of it.
func (mat *Materialization) pairCertain(ctx context.Context, g *datagraph.Graph, nulls []datagraph.NodeID,
	maxNulls int, q Query, from, to datagraph.NodeID) (bool, error) {

	fi, _ := g.IndexOf(from)
	ti, _ := g.IndexOf(to)
	fe, fromOne := q.(FromEvaluator)
	certain := true
	err := specializations(ctx, mat.gs, mat.SourceValues(), g, nulls, maxNulls, func(spec *datagraph.Graph) bool {
		if fromOne {
			certain = slices.Contains(fe.EvalFrom(spec, fi, datagraph.MarkedNulls), ti)
		} else {
			certain = q.Eval(spec, datagraph.MarkedNulls).Has(fi, ti)
		}
		return certain
	})
	if err != nil {
		return false, err
	}
	return certain, nil
}

// SpecializationCount returns how many canonical specializations
// CertainExact would enumerate for f nulls and k source values — used by
// the experiments to report search-space sizes.
func SpecializationCount(f, k int) int {
	var rec func(i, open int) int
	rec = func(i, open int) int {
		if i == f {
			return 1
		}
		total := k * rec(i+1, open)
		for c := 0; c <= open; c++ {
			o := open
			if c == open {
				o++
			}
			total += rec(i+1, o)
		}
		return total
	}
	return rec(0, 0)
}
