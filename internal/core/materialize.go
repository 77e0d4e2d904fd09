package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/datagraph"
	"repro/internal/fault"
)

// memo is a concurrency-safe, lazily computed value: the first caller to
// succeed populates it, every later caller — from any goroutine — gets the
// shared result. Unlike a sync.Once gate, a builder *error* is returned
// but not cached: a transient failure (a canceled context, an injected
// fault, resource pressure) must not poison the materialization forever,
// or a single bad call would permanently degrade every session sharing the
// backend. Deterministic failures (ErrInfinite, ErrNoSolution) are cheap
// to re-derive, so retrying them is harmless.
type memo[T any] struct {
	mu   sync.Mutex
	done bool
	val  T
}

func (mo *memo[T]) get(build func() (T, error)) (T, error) {
	mo.mu.Lock()
	defer mo.mu.Unlock()
	if mo.done {
		return mo.val, nil
	}
	val, err := build()
	if err != nil {
		var zero T
		return zero, err
	}
	mo.val, mo.done = val, true
	return mo.val, nil
}

// peek returns the memoized value without building it: (value, true) when a
// builder already succeeded, (zero, false) otherwise. SizeBytes uses it to
// observe artifacts without forcing their construction.
func (mo *memo[T]) peek() (T, bool) {
	mo.mu.Lock()
	defer mo.mu.Unlock()
	return mo.val, mo.done
}

// Materialization memoizes every expensive artifact derived from one
// (mapping, source graph) pair: the per-rule source query results, dom(M,
// Gs), the universal solution, the least informative solution, the null-node
// list and the source value pool. Each is computed at most once behind a
// sync.Once gate, so an arbitrary concurrent stream of certain-answer calls
// shares them — the core of the session API's amortization.
//
// The source graph must not be mutated while the materialization is in use;
// sessions enforce this with the graph's version counters.
type Materialization struct {
	cm *CompiledMapping
	gs *datagraph.Graph

	src   memo[[]*datagraph.PairSet]
	domN  memo[[]datagraph.Node]
	domID memo[map[datagraph.NodeID]struct{}]
	uni   memo[*datagraph.Graph]
	li    memo[*datagraph.Graph]
	nulls memo[[]datagraph.NodeID]
	vals  memo[[]datagraph.Value]

	// size memoizes the SizeBytes walk keyed on the set of built artifacts.
	size sizeCache
}

// NewMaterialization builds an empty materialization for a compiled mapping
// and a source graph; nothing is computed until first use.
func NewMaterialization(cm *CompiledMapping, gs *datagraph.Graph) *Materialization {
	return &Materialization{cm: cm, gs: gs}
}

// Compiled returns the compiled mapping.
func (mat *Materialization) Compiled() *CompiledMapping { return mat.cm }

// Source returns the source graph.
func (mat *Materialization) Source() *datagraph.Graph { return mat.gs }

// SourcePairs returns q(Gs) for every rule, index-aligned with the rules.
// Evaluated once; shared by dom computation, solution building and the
// Proposition 5 search.
func (mat *Materialization) SourcePairs() []*datagraph.PairSet {
	out, _ := mat.src.get(func() ([]*datagraph.PairSet, error) {
		pairs := make([]*datagraph.PairSet, len(mat.cm.Rules()))
		for i, r := range mat.cm.Rules() {
			pairs[i] = r.Source.Eval(mat.gs)
		}
		return pairs, nil
	})
	return out
}

// DomNodes returns dom(M, Gs) in dense-index order of Gs.
func (mat *Materialization) DomNodes() []datagraph.Node {
	out, _ := mat.domN.get(func() ([]datagraph.Node, error) {
		seen := make([]bool, mat.gs.NumNodes())
		n := 0
		for _, ps := range mat.SourcePairs() {
			ps.Each(func(p datagraph.Pair) {
				for _, i := range [2]int{p.From, p.To} {
					if !seen[i] {
						seen[i] = true
						n++
					}
				}
			})
		}
		nodes := make([]datagraph.Node, 0, n)
		for i, ok := range seen {
			if ok {
				nodes = append(nodes, mat.gs.Node(i))
			}
		}
		return nodes, nil
	})
	return out
}

// DomIDs returns the ids of DomNodes as a set.
func (mat *Materialization) DomIDs() map[datagraph.NodeID]struct{} {
	out, _ := mat.domID.get(func() (map[datagraph.NodeID]struct{}, error) {
		ids := make(map[datagraph.NodeID]struct{})
		for _, n := range mat.DomNodes() {
			ids[n.ID] = struct{}{}
		}
		return ids, nil
	})
	return out
}

// Universal is UniversalCtx without a deadline. It is kept for the
// benchmark harness under bench/, which calls it; everything else passes a
// context to UniversalCtx.
func (mat *Materialization) Universal() (*datagraph.Graph, error) {
	return mat.UniversalCtx(context.Background())
}

// UniversalCtx returns the memoized SQL-null universal solution of Section
// 7: dom(M, Gs) is copied, and for each rule (q, a₁…aₖ) and each pair
// (v, v′) ∈ q(Gs), a path v a₁ n₁ a₂ … aₖ v′ is added whose k−1
// intermediate nodes are fresh null nodes. It errors with ErrInfinite if the
// mapping is not relational, or with ErrNoSolution if a rule with target ε
// demands v = v′ for a pair with v ≠ v′.
//
// The chase that builds a missing solution checks ctx at every rule and
// every chasePoll pairs, so a canceled request abandons a cold
// materialization promptly instead of finishing it. The partial build is
// discarded (errors are never memoized) and the next caller retries under
// its own deadline.
func (mat *Materialization) UniversalCtx(ctx context.Context) (*datagraph.Graph, error) {
	return mat.uni.get(func() (*datagraph.Graph, error) {
		// Fault point "core.memo": the memoization gate, the moment a
		// missing artifact commits to being built.
		if err := fault.Hit("core.memo"); err != nil {
			return nil, err
		}
		return mat.chase(ctx, solutionNulls)
	})
}

// LeastInformativeCtx returns the memoized least informative solution of
// Section 8: the universal solution with fresh, pairwise distinct data
// values on its intermediate nodes instead of nulls. ctx bounds the chase as
// in UniversalCtx.
func (mat *Materialization) LeastInformativeCtx(ctx context.Context) (*datagraph.Graph, error) {
	return mat.li.get(func() (*datagraph.Graph, error) {
		if err := fault.Hit("core.memo"); err != nil {
			return nil, err
		}
		return mat.chase(ctx, solutionFresh)
	})
}

// UniversalNullsCtx returns the null-node ids of the universal solution,
// with ctx bounding any chase it triggers.
func (mat *Materialization) UniversalNullsCtx(ctx context.Context) ([]datagraph.NodeID, error) {
	return mat.nulls.get(func() ([]datagraph.NodeID, error) {
		u, err := mat.UniversalCtx(ctx)
		if err != nil {
			return nil, err
		}
		return NullNodes(u), nil
	})
}

// SourceValues returns the distinct data values of the source graph.
func (mat *Materialization) SourceValues() []datagraph.Value {
	out, _ := mat.vals.get(func() ([]datagraph.Value, error) {
		return mat.gs.Values(), nil
	})
	return out
}

// chasePoll is how many source pairs the chase fills between two ctx
// checks, on top of the check at every rule.
const chasePoll = 1024

// chase materialises a solution in either style set-at-a-time. The
// memoized source pairs fix the solution's shape before any of it is
// built — rule (q, a₁…aₖ) adds |q(Gs)|·(k−1) null nodes and |q(Gs)|·k
// edges (ten Cate et al.) — so one sizing pass allocates the node and edge
// arrays exactly, nulls are numbered by arithmetic (the j-th fresh node of
// rule r is base[r] + pair·(k−1) + hop + 1), their ids and fresh values are
// cut from one backing string each, and datagraph.Build checks the result
// and freezes it with one counting sort. The solution is the one the
// tuple-at-a-time chase of Section 7 adds node by node and edge by edge:
// dom(M, Gs) in source order, then paths by (rule, sorted pair, hop).
//
// The core.chase fault point fires once per rule; ctx is checked at every
// rule and every chasePoll pairs, so a canceled request abandons the
// partial arrays mid-rule.
func (mat *Materialization) chase(ctx context.Context, style solutionStyle) (*datagraph.Graph, error) {
	if !mat.cm.IsRelational() {
		return nil, fmt.Errorf("core: %w", ErrInfinite)
	}
	gs := mat.gs
	rules := mat.cm.Rules()
	srcPairs := mat.SourcePairs()

	// Sizing pass: each rule's pairs in order and the totals.
	pairs := make([][]datagraph.Pair, len(rules))
	nulls, edges := 0, 0
	for ri := range rules {
		pairs[ri] = srcPairs[ri].Sorted()
		if word, _ := mat.cm.TargetWord(ri); len(word) > 0 {
			nulls += len(pairs[ri]) * (len(word) - 1)
			edges += len(pairs[ri]) * len(word)
		}
	}
	// dom(M, Gs) comes first, so at maps a source index to its solution
	// index.
	dom := mat.DomNodes()
	at := make([]int32, gs.NumNodes())
	for d, n := range dom {
		i, _ := gs.IndexOf(n.ID)
		at[i] = int32(d)
	}
	nodes := make([]datagraph.Node, len(dom)+nulls)
	copy(nodes, dom)
	fresh := nodes[len(dom):]
	freshNames(freshPrefix(gs, "_n", idOf), nulls, func(j int, id string) {
		fresh[j] = datagraph.Node{ID: datagraph.NodeID(id), Value: datagraph.Null()}
	})
	if style == solutionFresh {
		freshNames(freshPrefix(gs, "_fresh", rawValueOf), nulls, func(j int, v string) {
			fresh[j].Value = datagraph.V(v)
		})
	}

	es := make([]datagraph.IndexEdge, 0, edges)
	next := int32(len(dom)) // the next null, in (rule, pair, hop) order
	for ri, r := range rules {
		// Fault point "core.chase": one per rule, mid-chase — exercises
		// abandoning a partially built solution (the partial arrays are
		// discarded, never published to the memo).
		if err := fault.Hit("core.chase"); err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, Canceled(err)
		}
		word, _ := mat.cm.TargetWord(ri)
		k := len(word)
		// The only edges two rules can both emit run dom → dom: those of
		// one-letter rules with the same letter. The earliest rule keeps
		// such an edge, as insertion into an edge set would.
		var earlier []*datagraph.PairSet
		for rj := 0; k == 1 && rj < ri; rj++ {
			if w, _ := mat.cm.TargetWord(rj); len(w) == 1 && w[0] == word[0] {
				earlier = append(earlier, srcPairs[rj])
			}
		}
	pairLoop:
		for pi, p := range pairs[ri] {
			if pi%chasePoll == chasePoll-1 {
				if err := ctx.Err(); err != nil {
					return nil, Canceled(err)
				}
			}
			if k == 0 {
				if p.From != p.To {
					return nil, fmt.Errorf("core: rule %s requires %s = %s via ε: %w",
						r, gs.Node(p.From).ID, gs.Node(p.To).ID, ErrNoSolution)
				}
				continue
			}
			for _, ps := range earlier {
				if ps.Has(p.From, p.To) {
					continue pairLoop
				}
			}
			prev := at[p.From]
			for _, a := range word[:k-1] {
				es = append(es, datagraph.IndexEdge{From: prev, Label: a, To: next})
				prev = next
				next++
			}
			es = append(es, datagraph.IndexEdge{From: prev, Label: word[k-1], To: at[p.To]})
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, Canceled(err)
	}
	return datagraph.Build(nodes, es)
}
