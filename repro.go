// Package repro is the public facade of the reproduction of "Schema
// Mappings for Data Graphs" (Francis & Libkin, PODS 2017). It re-exports
// the data-graph model, the query languages (RPQ, REE, REM, GXPath-core~),
// graph schema mappings, solution builders and every certain-answer
// algorithm the paper proves correct, so downstream users can depend on a
// single import.
//
// The serving API is session-centric (see session.go): compile the mapping
// once, open a Session per source graph, and stream queries against the
// memoized solutions:
//
//	gs := repro.NewGraph()
//	gs.MustAddNode("ann", repro.V("30"))
//	...
//	cm, err := repro.Compile(repro.NewMapping(repro.R("knows", "follows follows")))
//	s, err := repro.NewSession(cm, gs)
//	answers, err := s.CertainNull(ctx, repro.MustREE("(follows follows)!="))
//
// The free functions below (CertainNull, UniversalSolution, ...) predate
// sessions; they remain as thin wrappers that build a throwaway session per
// call, re-deriving every solution. Prefer sessions for anything that asks
// more than one question of the same (mapping, source graph) pair.
//
// See docs/ARCHITECTURE.md for the architecture and internal/experiments
// for the reproduction results; the subsystems live in internal/ packages.
package repro

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/crpq"
	"repro/internal/datagraph"
	"repro/internal/engine"
	"repro/internal/gxpath"
	"repro/internal/ree"
	"repro/internal/rem"
	"repro/internal/rpq"
)

// Data-graph model (internal/datagraph).
type (
	// Graph is a data graph: nodes (id, value) and labeled edges.
	Graph = datagraph.Graph
	// Node is a pair (id, value).
	Node = datagraph.Node
	// NodeID identifies a node.
	NodeID = datagraph.NodeID
	// Value is a data value or the SQL null.
	Value = datagraph.Value
	// DataPath is an alternating sequence of values and labels.
	DataPath = datagraph.DataPath
	// CompareMode selects marked-null or SQL-null comparison semantics.
	CompareMode = datagraph.CompareMode
	// PairSet is a set of node-index pairs (query results).
	PairSet = datagraph.PairSet
)

// Comparison modes.
const (
	MarkedNulls = datagraph.MarkedNulls
	SQLNulls    = datagraph.SQLNulls
)

// NewGraph returns an empty data graph.
func NewGraph() *Graph { return datagraph.New() }

// V returns the data value with the given string representation.
func V(s string) Value { return datagraph.V(s) }

// Null returns the SQL null value of Section 7.
func Null() Value { return datagraph.Null() }

// ParseGraph reads the line-based graph text format.
func ParseGraph(s string) (*Graph, error) { return datagraph.ParseString(s) }

// Mappings and certain answers (internal/core).
type (
	// Mapping is a graph schema mapping (Definition 1).
	Mapping = core.Mapping
	// Rule is one mapping rule (q, q′).
	Rule = core.Rule
	// Answers is a set of certain answers.
	Answers = core.Answers
	// Query is the interface certain-answer algorithms accept.
	Query = core.Query
	// ExactOptions bounds the exponential exact search.
	ExactOptions = core.ExactOptions
)

// NewMapping builds a mapping from rules.
func NewMapping(rules ...Rule) *Mapping { return core.NewMapping(rules...) }

// NewAnswers returns an empty answer set.
func NewAnswers() *Answers { return core.NewAnswers() }

// R builds a rule from rex-syntax source and target RPQs.
func R(source, target string) Rule { return core.R(source, target) }

// ParseMapping reads the line-based mapping text format.
func ParseMapping(s string) (*Mapping, error) { return core.ParseMappingString(s) }

// throwawaySession builds the single-use session behind the deprecated free
// functions.
func throwawaySession(m *Mapping, gs *Graph, opts ...Option) (*Session, error) {
	cm, err := Compile(m)
	if err != nil {
		return nil, err
	}
	return NewSession(cm, gs, opts...)
}

// UniversalSolution builds the SQL-null universal solution (Section 7).
//
// Deprecated: use [NewSession] and [Session.UniversalSolution], which
// memoize the solution for reuse; this wrapper rebuilds it per call.
func UniversalSolution(m *Mapping, gs *Graph) (*Graph, error) {
	s, err := throwawaySession(m, gs)
	if err != nil {
		return nil, err
	}
	return s.UniversalSolution(context.Background())
}

// LeastInformativeSolution builds the fresh-value solution (Section 8).
//
// Deprecated: use [NewSession] and [Session.LeastInformativeSolution].
func LeastInformativeSolution(m *Mapping, gs *Graph) (*Graph, error) {
	s, err := throwawaySession(m, gs)
	if err != nil {
		return nil, err
	}
	return s.LeastInformativeSolution(context.Background())
}

// CertainNull computes 2ⁿ_M(Q, Gs) via the universal solution (Theorem 4):
// tractable, exact for data RPQs over targets with SQL nulls, and an
// underapproximation of the classical certain answers.
//
// Deprecated: use [NewSession] and [Session.CertainNull], which share the
// universal solution across calls; this wrapper rebuilds it per call.
func CertainNull(m *Mapping, gs *Graph, q Query) (*Answers, error) {
	s, err := throwawaySession(m, gs)
	if err != nil {
		return nil, err
	}
	return s.CertainNull(context.Background(), q)
}

// CertainLeastInformative computes 2_M(Q, Gs) for equality-only queries
// (REM=/REE=, Theorem 5).
//
// Deprecated: use [NewSession] and [Session.CertainLeastInformative].
func CertainLeastInformative(m *Mapping, gs *Graph, q Query) (*Answers, error) {
	s, err := throwawaySession(m, gs)
	if err != nil {
		return nil, err
	}
	return s.CertainLeastInformative(context.Background(), q)
}

// CertainExact computes 2_M(Q, Gs) exactly by exponential search
// (Theorem 2's coNP bound made deterministic); see ExactOptions.
//
// Deprecated: use [NewSession] with [WithMaxNulls] and
// [Session.CertainExact]; this wrapper rebuilds the universal solution per
// call.
func CertainExact(m *Mapping, gs *Graph, q Query, opts ExactOptions) (*Answers, error) {
	var sopts []Option
	if opts.MaxNulls != 0 {
		if opts.MaxNulls < 0 {
			return nil, fmt.Errorf("%w: MaxNulls %d is negative", ErrBadOptions, opts.MaxNulls)
		}
		sopts = append(sopts, WithMaxNulls(opts.MaxNulls))
	}
	s, err := throwawaySession(m, gs, sopts...)
	if err != nil {
		return nil, err
	}
	return s.CertainExact(context.Background(), q)
}

// CertainOneInequality decides one pair for paths-with-tests with at most
// one inequality in polynomial time (Proposition 4).
//
// Deprecated: use [NewSession] and [Session.CertainOneInequality].
func CertainOneInequality(m *Mapping, gs *Graph, q *REEQuery, from, to NodeID) (bool, error) {
	s, err := throwawaySession(m, gs)
	if err != nil {
		return false, err
	}
	return s.CertainOneInequality(context.Background(), q, from, to)
}

// CertainDataPathArbitrary decides one pair for a path-with-tests query
// under an *arbitrary* (possibly non-relational) GSM — the Proposition 5
// procedure, exponential in the mapping's word choices and fresh nodes.
//
// Deprecated: use [NewSession] and [Session.CertainDataPathArbitrary].
func CertainDataPathArbitrary(m *Mapping, gs *Graph, q *REEQuery, from, to NodeID) (bool, error) {
	s, err := throwawaySession(m, gs)
	if err != nil {
		return false, err
	}
	return s.CertainDataPathArbitrary(context.Background(), q, from, to)
}

// The concurrent evaluation engine (internal/engine): certain answers
// computed over the per-label adjacency indexes by a pool of GOMAXPROCS
// workers, sharding independent queries and independent source-node
// frontiers. Output is deterministic and identical to the sequential
// algorithms.
type (
	// EngineOptions configure the engine's worker pool.
	EngineOptions = engine.Options
)

// Eval computes the certain answers 2ⁿ_M(Q, Gs) (Theorem 4) for every
// query concurrently, returning one answer set per query, index-aligned.
// The universal solution is built once and shared by all workers.
//
// Deprecated: use [NewSession] and [Session.Eval], which share the
// universal solution across batches; this wrapper rebuilds it per call.
func Eval(ctx context.Context, m *Mapping, gs *Graph, queries ...Query) ([]*Answers, error) {
	return EvalOpts(ctx, m, gs, EngineOptions{}, queries...)
}

// EvalOpts is Eval with explicit worker-pool options.
//
// Deprecated: use [NewSession] with [WithWorkers]/[WithChunkSize] and
// [Session.Eval].
func EvalOpts(ctx context.Context, m *Mapping, gs *Graph, opts EngineOptions, queries ...Query) ([]*Answers, error) {
	var sopts []Option
	if opts.Workers > 0 {
		sopts = append(sopts, WithWorkers(opts.Workers))
	}
	if opts.ChunkSize > 0 {
		sopts = append(sopts, WithChunkSize(opts.ChunkSize))
	}
	s, err := throwawaySession(m, gs, sopts...)
	if err != nil {
		return nil, err
	}
	return s.Eval(ctx, queries...)
}

// CertainNullParallel is CertainNull on the worker-pool engine.
//
// Deprecated: use [NewSession] and [Session.CertainNull], which is
// engine-backed and shares the universal solution across calls.
func CertainNullParallel(ctx context.Context, m *Mapping, gs *Graph, q Query) (*Answers, error) {
	s, err := throwawaySession(m, gs)
	if err != nil {
		return nil, err
	}
	return s.CertainNull(ctx, q)
}

// CertainLeastInformativeParallel is CertainLeastInformative on the
// worker-pool engine.
//
// Deprecated: use [NewSession] and [Session.CertainLeastInformative].
func CertainLeastInformativeParallel(ctx context.Context, m *Mapping, gs *Graph, q Query) (*Answers, error) {
	s, err := throwawaySession(m, gs)
	if err != nil {
		return nil, err
	}
	return s.CertainLeastInformative(ctx, q)
}

// EvalGraphParallel evaluates one query over one graph with the start-node
// frontier sharded across the worker pool — the parallel counterpart of
// q.Eval(g, mode).
func EvalGraphParallel(ctx context.Context, g *Graph, q Query, mode CompareMode) (*PairSet, error) {
	return engine.EvalGraph(ctx, g, q, mode, EngineOptions{})
}

// Query languages.
type (
	// REEQuery is a regular expression with equality (equality RPQ).
	REEQuery = ree.Query
	// REMQuery is a regular expression with memory (memory RPQ).
	REMQuery = rem.Query
	// RPQQuery is a purely navigational regular path query.
	RPQQuery = rpq.Query
	// GXNodeExpr is a GXPath-core~ node expression.
	GXNodeExpr = gxpath.NodeExpr
	// GXPathExpr is a GXPath-core~ path expression.
	GXPathExpr = gxpath.PathExpr
)

// ParseREE parses an equality RPQ, e.g. "(a b)=" or ".* (.+)= .*".
func ParseREE(s string) (*REEQuery, error) { return ree.ParseQuery(s) }

// MustREE is ParseREE that panics on error.
func MustREE(s string) *REEQuery { return ree.MustParseQuery(s) }

// ParseREM parses a memory RPQ, e.g. "!x.(a[x!=])+".
func ParseREM(s string) (*REMQuery, error) { return rem.ParseQuery(s) }

// MustREM is ParseREM that panics on error.
func MustREM(s string) *REMQuery { return rem.MustParseQuery(s) }

// ParseRPQ parses a navigational RPQ wrapped for certain-answer APIs.
func ParseRPQ(s string) (Query, error) {
	q, err := rpq.Parse(s)
	if err != nil {
		return nil, err
	}
	return core.NavQuery{Q: q}, nil
}

// ParseGXNode parses a GXPath-core~ node expression, e.g. "<a (a- b)=>".
func ParseGXNode(s string) (GXNodeExpr, error) { return gxpath.ParseNode(s) }

// ParseGXPath parses a GXPath-core~ path expression.
func ParseGXPath(s string) (GXPathExpr, error) { return gxpath.ParsePath(s) }

// EvalGXNode computes [[φ]]_G as node indices (Figure 1 semantics).
func EvalGXNode(g *Graph, phi GXNodeExpr, mode CompareMode) []int {
	return gxpath.NodesSatisfying(g, phi, mode)
}

// EvalGXPath computes [[α]]_G (Figure 1 semantics).
func EvalGXPath(g *Graph, alpha GXPathExpr, mode CompareMode) *PairSet {
	return gxpath.EvalPath(g, alpha, mode)
}

// Conjunctive data RPQs (library extension; internal/crpq).
type (
	// ConjunctiveQuery is a conjunctive query over binary data-RPQ atoms.
	ConjunctiveQuery = crpq.Query
	// TupleSet holds conjunctive-query answers.
	TupleSet = crpq.TupleSet
)

// ParseConjunctive parses e.g. "ans(x, y) :- x -[knows knows]-> z, z -[(likes)=]-> y".
func ParseConjunctive(s string) (*ConjunctiveQuery, error) { return crpq.Parse(s) }

// CertainConjunctive computes certain answers of a conjunctive data RPQ
// over SQL-null targets (Theorem 4 lifted to conjunctions).
func CertainConjunctive(m *Mapping, gs *Graph, q *ConjunctiveQuery) (*TupleSet, error) {
	return crpq.Certain(m, gs, q)
}
