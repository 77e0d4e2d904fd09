// Package crpq implements conjunctive data RPQs: conjunctive queries whose
// atoms are binary data RPQs (REE, REM or navigational RPQs). The paper
// discusses conjunctive RPQs as one of the navigational classes with coNP
// certain-answer complexity (Section 5, citing [8,12]); this package
// extends the library to the data-carrying version and reuses the
// Section 7 machinery: conjunctions of homomorphism-closed atoms are
// homomorphism-closed, so certain answers over SQL-null targets are
// computed on the universal solution and null-carrying tuples dropped
// (Theorem 4 lifts pointwise).
//
// Concrete syntax (Parse):
//
//	ans(x, y) :- x -[knows knows]-> z, z -[(likes likes)=]-> y
//
// Atom bodies default to REE; prefix with "rem:" or "rpq:" to select the
// other languages, e.g. z -[rem: !v.(a[v=])+]-> y.
package crpq

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/datagraph"
	"repro/internal/ree"
	"repro/internal/rem"
	"repro/internal/rpq"
	"repro/internal/syntax"
)

// Var is a query variable.
type Var string

// Atom is one conjunct: From and To are variables, Query the binary data
// RPQ between them.
type Atom struct {
	From, To Var
	Query    core.Query
	// Text is the original body text, kept for String.
	Text string
}

// Query is a conjunctive data RPQ with a projection head.
type Query struct {
	Head  []Var
	Atoms []Atom
}

// Validate checks that every head variable occurs in some atom and that
// there is at least one atom.
func (q *Query) Validate() error {
	if len(q.Atoms) == 0 {
		return fmt.Errorf("crpq: query has no atoms")
	}
	vars := q.vars()
	for _, h := range q.Head {
		if _, ok := vars[h]; !ok {
			return fmt.Errorf("crpq: head variable %s not used in any atom", h)
		}
	}
	return nil
}

func (q *Query) vars() map[Var]struct{} {
	out := make(map[Var]struct{})
	for _, a := range q.Atoms {
		out[a.From] = struct{}{}
		out[a.To] = struct{}{}
	}
	return out
}

func (q *Query) String() string {
	heads := make([]string, len(q.Head))
	for i, h := range q.Head {
		heads[i] = string(h)
	}
	atoms := make([]string, len(q.Atoms))
	for i, a := range q.Atoms {
		atoms[i] = fmt.Sprintf("%s -[%s]-> %s", a.From, a.Text, a.To)
	}
	return fmt.Sprintf("ans(%s) :- %s", strings.Join(heads, ", "), strings.Join(atoms, ", "))
}

// Tuple is one answer: the nodes bound to the head variables, in order.
type Tuple []datagraph.Node

func (t Tuple) key() string {
	parts := make([]string, len(t))
	for i, n := range t {
		parts[i] = string(n.ID)
	}
	return strings.Join(parts, "\x00")
}

// TupleSet is a set of answers.
type TupleSet struct {
	m map[string]Tuple
}

// NewTupleSet returns an empty set.
func NewTupleSet() *TupleSet { return &TupleSet{m: make(map[string]Tuple)} }

// Add inserts a tuple.
func (s *TupleSet) Add(t Tuple) { s.m[t.key()] = t }

// Len returns the number of tuples.
func (s *TupleSet) Len() int { return len(s.m) }

// Has reports membership by node ids.
func (s *TupleSet) Has(ids ...datagraph.NodeID) bool {
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = string(id)
	}
	_, ok := s.m[strings.Join(parts, "\x00")]
	return ok
}

// Sorted returns tuples in deterministic order.
func (s *TupleSet) Sorted() []Tuple {
	keys := make([]string, 0, len(s.m))
	for k := range s.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Tuple, len(keys))
	for i, k := range keys {
		out[i] = s.m[k]
	}
	return out
}

// Equal reports set equality on id tuples.
func (s *TupleSet) Equal(t *TupleSet) bool {
	if s.Len() != t.Len() {
		return false
	}
	for k := range s.m {
		if _, ok := t.m[k]; !ok {
			return false
		}
	}
	return true
}

// SubsetOf reports s ⊆ t on id tuples.
func (s *TupleSet) SubsetOf(t *TupleSet) bool {
	for k := range s.m {
		if _, ok := t.m[k]; !ok {
			return false
		}
	}
	return true
}

// Eval computes the answers of the conjunctive query over g: a backtracking
// join over the atom relations, atoms ordered greedily by connectivity to
// already-bound variables.
func (q *Query) Eval(g *datagraph.Graph, mode datagraph.CompareMode) (*TupleSet, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	// Materialise each atom's relation once.
	rels := make([]*datagraph.PairSet, len(q.Atoms))
	for i, a := range q.Atoms {
		rels[i] = a.Query.Eval(g, mode)
	}
	// Order atoms: start from the first, then prefer atoms sharing a bound
	// variable (simple greedy join order).
	order := joinOrder(q.Atoms)
	// Index relations by From and To for bound-variable lookups.
	type index struct {
		byFrom map[int][]int
		byTo   map[int][]int
		pairs  []datagraph.Pair
	}
	idx := make([]index, len(q.Atoms))
	for i, rel := range rels {
		ix := index{byFrom: map[int][]int{}, byTo: map[int][]int{}}
		rel.Each(func(p datagraph.Pair) {
			ix.pairs = append(ix.pairs, p)
		})
		sort.Slice(ix.pairs, func(a, b int) bool {
			if ix.pairs[a].From != ix.pairs[b].From {
				return ix.pairs[a].From < ix.pairs[b].From
			}
			return ix.pairs[a].To < ix.pairs[b].To
		})
		for pi, p := range ix.pairs {
			ix.byFrom[p.From] = append(ix.byFrom[p.From], pi)
			ix.byTo[p.To] = append(ix.byTo[p.To], pi)
		}
		idx[i] = ix
	}

	binding := make(map[Var]int)
	out := NewTupleSet()
	var rec func(k int)
	rec = func(k int) {
		if k == len(order) {
			tuple := make(Tuple, len(q.Head))
			for i, h := range q.Head {
				tuple[i] = g.Node(binding[h])
			}
			out.Add(tuple)
			return
		}
		ai := order[k]
		a := q.Atoms[ai]
		ix := idx[ai]
		fromBound, fromOK := binding[a.From]
		toBound, toOK := binding[a.To]
		try := func(p datagraph.Pair) {
			if fromOK && p.From != fromBound {
				return
			}
			if toOK && p.To != toBound {
				return
			}
			if !fromOK {
				binding[a.From] = p.From
			}
			// Self-join variable (a.From == a.To) needs p.From == p.To.
			if a.From == a.To && p.From != p.To {
				if !fromOK {
					delete(binding, a.From)
				}
				return
			}
			if !toOK {
				binding[a.To] = p.To
			}
			rec(k + 1)
			if !fromOK {
				delete(binding, a.From)
			}
			if !toOK && a.From != a.To {
				delete(binding, a.To)
			}
		}
		switch {
		case fromOK:
			for _, pi := range ix.byFrom[fromBound] {
				try(ix.pairs[pi])
			}
		case toOK:
			for _, pi := range ix.byTo[toBound] {
				try(ix.pairs[pi])
			}
		default:
			for _, p := range ix.pairs {
				try(p)
			}
		}
	}
	rec(0)
	return out, nil
}

// joinOrder returns atom indices such that after the first, each atom
// shares a variable with an earlier one when possible.
func joinOrder(atoms []Atom) []int {
	n := len(atoms)
	used := make([]bool, n)
	bound := map[Var]struct{}{}
	var order []int
	pick := func(i int) {
		used[i] = true
		bound[atoms[i].From] = struct{}{}
		bound[atoms[i].To] = struct{}{}
		order = append(order, i)
	}
	pick(0)
	for len(order) < n {
		found := -1
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			_, f := bound[atoms[i].From]
			_, t := bound[atoms[i].To]
			if f || t {
				found = i
				break
			}
		}
		if found < 0 { // disconnected component: take the next unused
			for i := 0; i < n; i++ {
				if !used[i] {
					found = i
					break
				}
			}
		}
		pick(found)
	}
	return order
}

// Certain computes the certain answers over SQL-null targets (the
// Theorem 4 route, lifted to conjunctions of homomorphism-closed atoms):
// evaluate on the universal solution u under SQL-null semantics and keep
// only tuples without null nodes.
func Certain(u *datagraph.Graph, q *Query) (*TupleSet, error) {
	res, err := q.Eval(u, datagraph.SQLNulls)
	if err != nil {
		return nil, err
	}
	out := NewTupleSet()
	for _, tup := range res.Sorted() {
		ok := true
		for _, n := range tup {
			if n.IsNullNode() {
				ok = false
				break
			}
		}
		if ok {
			out.Add(tup)
		}
	}
	return out, nil
}

// Parse reads the concrete syntax documented in the package comment.
func Parse(input string) (*Query, error) {
	parts := strings.SplitN(input, ":-", 2)
	if len(parts) != 2 {
		return nil, fmt.Errorf("crpq: missing ':-'")
	}
	head, err := parseHead(strings.TrimSpace(parts[0]))
	if err != nil {
		return nil, err
	}
	atoms, err := parseAtoms(strings.TrimSpace(parts[1]))
	if err != nil {
		return nil, err
	}
	q := &Query{Head: head, Atoms: atoms}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return q, nil
}

// MustParse is Parse that panics on error.
func MustParse(input string) *Query { return syntax.Must(Parse(input)) }

func parseHead(s string) ([]Var, error) {
	open := strings.Index(s, "(")
	if open < 0 || !strings.HasSuffix(s, ")") {
		return nil, fmt.Errorf("crpq: head must look like ans(x, y)")
	}
	inner := s[open+1 : len(s)-1]
	var out []Var
	for _, f := range strings.Split(inner, ",") {
		v := strings.TrimSpace(f)
		if v == "" {
			return nil, fmt.Errorf("crpq: empty head variable")
		}
		out = append(out, Var(v))
	}
	return out, nil
}

// parseAtoms splits on commas at bracket depth 0 (REM bodies contain
// brackets and binder commas inside -[...]->).
func parseAtoms(s string) ([]Atom, error) {
	var atoms []Atom
	depth := 0
	start := 0
	flush := func(end int) error {
		text := strings.TrimSpace(s[start:end])
		if text == "" {
			return fmt.Errorf("crpq: empty atom")
		}
		a, err := parseAtom(text)
		if err != nil {
			return err
		}
		atoms = append(atoms, a)
		return nil
	}
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '[':
			depth++
		case ']':
			depth--
		case ',':
			if depth == 0 {
				if err := flush(i); err != nil {
					return nil, err
				}
				start = i + 1
			}
		}
	}
	if err := flush(len(s)); err != nil {
		return nil, err
	}
	return atoms, nil
}

func parseAtom(s string) (Atom, error) {
	open := strings.Index(s, "-[")
	close := strings.LastIndex(s, "]->")
	if open < 0 || close < 0 || close < open {
		return Atom{}, fmt.Errorf("crpq: atom %q must look like x -[expr]-> y", s)
	}
	from := Var(strings.TrimSpace(s[:open]))
	to := Var(strings.TrimSpace(s[close+3:]))
	body := strings.TrimSpace(s[open+2 : close])
	if from == "" || to == "" || body == "" {
		return Atom{}, fmt.Errorf("crpq: malformed atom %q", s)
	}
	var q core.Query
	var err error
	switch {
	case strings.HasPrefix(body, "rem:"):
		q, err = rem.ParseQuery(strings.TrimSpace(strings.TrimPrefix(body, "rem:")))
	case strings.HasPrefix(body, "rpq:"):
		var nav *rpq.Query
		nav, err = rpq.Parse(strings.TrimSpace(strings.TrimPrefix(body, "rpq:")))
		if err == nil {
			q = core.NavQuery{Q: nav}
		}
	default:
		q, err = ree.ParseQuery(body)
	}
	if err != nil {
		return Atom{}, fmt.Errorf("crpq: atom %q: %w", s, err)
	}
	return Atom{From: from, To: to, Query: q, Text: body}, nil
}
