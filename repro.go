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
// Every certain-answer algorithm is a Session method: a one-off question
// opens a session for it, and repeated questions of the same (mapping,
// source graph) pair share its memoized solutions.
//
// See docs/ARCHITECTURE.md for the architecture and internal/experiments
// for the reproduction results; the subsystems live in internal/ packages.
package repro

import (
	"repro/internal/core"
	"repro/internal/crpq"
	"repro/internal/datagraph"
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
)

// NewMapping builds a mapping from rules.
func NewMapping(rules ...Rule) *Mapping { return core.NewMapping(rules...) }

// NewAnswers returns an empty answer set.
func NewAnswers() *Answers { return core.NewAnswers() }

// R builds a rule from rex-syntax source and target RPQs.
func R(source, target string) Rule { return core.R(source, target) }

// ParseMapping reads the line-based mapping text format.
func ParseMapping(s string) (*Mapping, error) { return core.ParseMappingString(s) }

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
