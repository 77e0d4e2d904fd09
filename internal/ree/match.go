package ree

import "repro/internal/datagraph"

// MatchDirect reports whether the data path is in L(e) using interval
// dynamic programming over the expression tree, without going through the
// register automaton. It exists as an independent implementation for
// cross-validation and for the ablation experiment E12: the two matchers
// are checked against each other in tests.
func MatchDirect(e Expr, w datagraph.DataPath, mode datagraph.CompareMode) bool {
	m := &directMatcher{w: w, mode: mode, memo: make(map[memoKey]bool)}
	root := m.index(e)
	return m.match(root, 0, w.Len())
}

type nodeKind int

const (
	nEps nodeKind = iota
	nLit
	nAny
	nConcat
	nUnion
	nPlus
	nStar
	nOpt
	nEq
	nNeq
)

// inode is an indexed expression node; kids refer to other inodes by index,
// so subexpressions can serve as memo keys.
type inode struct {
	kind  nodeKind
	label string
	kids  []int
}

type memoKey struct {
	node int
	i, j int
}

type directMatcher struct {
	w     datagraph.DataPath
	mode  datagraph.CompareMode
	nodes []inode
	memo  map[memoKey]bool
}

// index flattens the AST into an indexed tree and returns the root index.
func (m *directMatcher) index(e Expr) int {
	add := func(n inode) int {
		m.nodes = append(m.nodes, n)
		return len(m.nodes) - 1
	}
	switch t := e.(type) {
	case Eps:
		return add(inode{kind: nEps})
	case Lit:
		return add(inode{kind: nLit, label: t.Label})
	case Any:
		return add(inode{kind: nAny})
	case Concat:
		kids := make([]int, len(t.Factors))
		for i, f := range t.Factors {
			kids[i] = m.index(f)
		}
		return add(inode{kind: nConcat, kids: kids})
	case Union:
		kids := make([]int, len(t.Alts))
		for i, a := range t.Alts {
			kids[i] = m.index(a)
		}
		return add(inode{kind: nUnion, kids: kids})
	case Plus:
		return add(inode{kind: nPlus, kids: []int{m.index(t.Inner)}})
	case Star:
		return add(inode{kind: nStar, kids: []int{m.index(t.Inner)}})
	case Opt:
		return add(inode{kind: nOpt, kids: []int{m.index(t.Inner)}})
	case Eq:
		return add(inode{kind: nEq, kids: []int{m.index(t.Inner)}})
	case Neq:
		return add(inode{kind: nNeq, kids: []int{m.index(t.Inner)}})
	default:
		panic("ree: unknown expression node")
	}
}

// match reports whether the subpath spanning positions [i, j] matches the
// node. Positions index data values: the subpath has labels w.Labels[i:j].
func (m *directMatcher) match(id, i, j int) bool {
	key := memoKey{id, i, j}
	if v, ok := m.memo[key]; ok {
		return v
	}
	n := m.nodes[id]
	var v bool
	switch n.kind {
	case nEps:
		v = i == j
	case nLit:
		v = j == i+1 && m.w.Labels[i] == n.label
	case nAny:
		v = j == i+1
	case nConcat:
		v = m.concatMatch(n.kids, i, j)
	case nUnion:
		for _, k := range n.kids {
			if m.match(k, i, j) {
				v = true
				break
			}
		}
	case nPlus:
		v = m.plusMatch(n.kids[0], i, j)
	case nStar:
		v = i == j || m.plusMatch(n.kids[0], i, j)
	case nOpt:
		v = i == j || m.match(n.kids[0], i, j)
	case nEq:
		v = m.match(n.kids[0], i, j) && m.mode.Eq(m.w.Values[i], m.w.Values[j])
	case nNeq:
		v = m.match(n.kids[0], i, j) && m.mode.Neq(m.w.Values[i], m.w.Values[j])
	}
	m.memo[key] = v
	return v
}

// targets returns all k ∈ [i, limit] such that [i, k] matches the node.
func (m *directMatcher) targets(id, i, limit int) []int {
	var out []int
	for k := i; k <= limit; k++ {
		if m.match(id, i, k) {
			out = append(out, k)
		}
	}
	return out
}

func (m *directMatcher) concatMatch(kids []int, i, j int) bool {
	frontier := map[int]struct{}{i: {}}
	for _, f := range kids {
		next := make(map[int]struct{})
		for k := range frontier {
			for _, k2 := range m.targets(f, k, j) {
				next[k2] = struct{}{}
			}
		}
		if len(next) == 0 {
			return false
		}
		frontier = next
	}
	_, ok := frontier[j]
	return ok
}

// plusMatch computes whether j is reachable from i by one or more
// applications of the node's language.
func (m *directMatcher) plusMatch(id, i, j int) bool {
	reached := make(map[int]bool)
	frontier := []int{i}
	for len(frontier) > 0 {
		var next []int
		for _, k := range frontier {
			for _, k2 := range m.targets(id, k, j) {
				if !reached[k2] {
					reached[k2] = true
					next = append(next, k2)
				}
			}
		}
		frontier = next
	}
	return reached[j]
}
