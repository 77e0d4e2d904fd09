package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/datagraph"
	"repro/internal/ra"
	"repro/internal/ree"
	"repro/internal/rex"
)

// This file implements Proposition 5: for data path queries Q (paths with
// tests) the certain-answer problem is decidable — in coNP — for *arbitrary*
// GSMs, not just relational ones. The paper's idea: mapping rules can only
// help a Q-match through target words no longer than |Q|, so the mapping can
// be cut down to an essentially relational one.
//
// Realisation. In a canonical adversary solution, every rule (q, q′) and
// every pair (u, v) ∈ q(Gs) is satisfied by materialising one fresh path
// from u to v spelling some word w ∈ L(q′) chosen by the adversary. Since
// fresh intermediate nodes are per-pair, any length-|Q| match from x to y
// decomposes into *complete* traversals of inserted paths, so only words of
// length ≤ |Q| can participate; longer words are interchangeable ("LONG").
// The adversary space is therefore finite:
//
//   - per (rule, pair): a word of length ≤ |Q| from L(q′) over the alphabet
//     Σ_Q ∪ {⋆} (labels outside Q are interchangeable, represented by ⋆),
//     or LONG when L(q′) contains some word longer than |Q| (decidable: an
//     accepting state of q′'s DFA is reachable after more than |Q| letters);
//   - per fresh node: a data value, enumerated as canonical specializations
//     exactly as in CertainExact.
//
// (x, y) is certain iff every combination yields a match — the
// deterministic realisation of the coNP bound. Completeness of the choice
// space follows by inducing, from an arbitrary solution Gt, the choices and
// values of the witness paths that Gt uses; the canonical match then
// transfers to Gt because paths-with-tests only inspect labels and
// endpoint equalities of contiguous segments.

// longMarker represents a word longer than |Q| in the choice space.
var longMarker = []string{"\x00long"}

// starLabel is the canonical representative of "any label not in Q".
const starLabel = "\x00star"

// Prop5Options bounds the doubly-exponential search.
type Prop5Options struct {
	// MaxChoices caps the number of (word choice) combinations. Default 4096.
	MaxChoices int
	// MaxNulls caps fresh nodes per candidate solution. Default 10.
	MaxNulls int
	// Workers is the number of goroutines sharding the adversary's choice
	// combinations (each combination is checked independently, so the search
	// parallelizes perfectly). ≤ 1 runs sequentially. Sessions set this to
	// their worker count, GOMAXPROCS by default.
	Workers int
}

// Normalized validates the options once: negative budgets are ErrBadOptions,
// zeros select the defaults.
func (o Prop5Options) Normalized() (Prop5Options, error) {
	if o.MaxChoices < 0 {
		return o, badOptionf("MaxChoices %d is negative", o.MaxChoices)
	}
	if o.MaxNulls < 0 {
		return o, badOptionf("MaxNulls %d is negative", o.MaxNulls)
	}
	if o.MaxChoices == 0 {
		o.MaxChoices = 4096
	}
	if o.MaxNulls == 0 {
		o.MaxNulls = 10
	}
	return o, nil
}

// CertainDataPathArbitrary decides (from, to) ∈ 2_M(Q, Gs) for an arbitrary
// GSM and a path-with-tests query. The memoized per-rule source results and
// dom are shared, and ctx is honored between adversary combinations
// (returning an ErrCanceled wrap).
func (mat *Materialization) CertainDataPathArbitrary(ctx context.Context, q *ree.Query,
	from, to datagraph.NodeID, opts Prop5Options) (bool, error) {

	opts, err := opts.Normalized()
	if err != nil {
		return false, err
	}
	m, gs := mat.cm.Mapping(), mat.gs
	labels, _, ok := ree.FlattenPathWithTests(q.Expr())
	if !ok {
		return false, fmt.Errorf("core: query %s is not a path with tests", q)
	}
	L := len(labels)

	// Per (rule, pair) choice sets, counted before they are listed.
	sourcePairs := mat.SourcePairs()
	var slots []prop5Slot
	total, combos := 1, 1
	for ri, r := range m.Rules {
		pairs := sourcePairs[ri].Sorted()
		if len(pairs) == 0 {
			continue
		}
		// The word alphabet: the query's labels and the labels the target
		// expression mentions concretely; wordDFA adds ⋆ for every other
		// label (reachable only through Any-transitions). Labels the
		// target names explicitly must stay concrete — collapsing them into
		// ⋆ would lose adversary choices like picking the c·c branch of
		// b | c·c to dodge a b query.
		alpha := uniqueLabels(append(append([]string{}, labels...),
			rex.Labels(r.Target.Expr())...))
		w := newWordDFA(rex.Compile(r.Target.Expr()), alpha)
		n := w.count(L, math.MaxInt/opts.MaxChoices) // MaxChoices × n fits an int
		for _, p := range pairs {
			usable := n
			if w.d.Accepts[0] && p.From != p.To {
				usable-- // ε-words demand u = v
			}
			if usable == 0 {
				// This pair admits no realisation, so no solution exists
				// (also when L(q′) is empty over the alphabet, which the rex
				// grammar, having no ∅, cannot express).
				return true, nil
			}
			if total *= usable; total > opts.MaxChoices {
				return false, budgetErrf("core: %d word-choice combinations exceed budget %d",
					total, opts.MaxChoices)
			}
		}
		words, err := w.words(ctx, L)
		if err != nil {
			return false, err
		}
		for _, p := range pairs {
			usable := words
			if p.From != p.To && len(words[0]) == 0 {
				usable = words[1:] // the ε-word, first in the listing
			}
			slots = append(slots, prop5Slot{from: gs.Node(p.From), to: gs.Node(p.To), words: usable})
			combos *= len(usable)
		}
	}
	total = combos

	dom := mat.DomIDs()
	if _, okF := dom[from]; !okF {
		return false, nil
	}
	if _, okT := dom[to]; !okT {
		return false, nil
	}

	// Enumerate choice combinations; for each, build the canonical target
	// and run the CertainExactPair-style specialization check inline. Each
	// combination is independent, so the enumeration shards across workers:
	// combination indices are decoded mixed-radix into choice vectors.
	domNodes := mat.DomNodes()
	checkCombo := func(idx int, choice []int) (holds bool, err error) {
		if err := ctx.Err(); err != nil {
			return false, Canceled(err)
		}
		for i := range slots {
			choice[i] = idx % len(slots[i].words)
			idx /= len(slots[i].words)
		}
		gt, err := buildChoiceSolution(gs, domNodes, slots, choice, L)
		if err != nil {
			return false, err
		}
		return mat.pairCertain(ctx, gt, NullNodes(gt), opts.MaxNulls, q, from, to)
	}

	workers := opts.Workers
	if workers > total {
		workers = total
	}
	if workers <= 1 {
		choice := make([]int, len(slots))
		for idx := 0; idx < total; idx++ {
			holds, err := checkCombo(idx, choice)
			if err != nil {
				return false, err
			}
			if !holds {
				return false, nil // adversary found a counterexample family
			}
		}
		return true, nil
	}

	var (
		next     atomic.Int64
		refuted  atomic.Bool // a counterexample family was found
		stop     atomic.Bool
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			choice := make([]int, len(slots))
			for !stop.Load() {
				idx := int(next.Add(1)) - 1
				if idx >= total {
					return
				}
				holds, err := checkCombo(idx, choice)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					stop.Store(true)
					return
				}
				if !holds {
					refuted.Store(true)
					stop.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	// A refutation is definitive — some combination admits no match, so the
	// pair is not certain — and must win over a concurrent worker's budget
	// error, or the outcome would depend on the worker count.
	if refuted.Load() {
		return false, nil
	}
	if firstErr != nil {
		return false, firstErr
	}
	return true, nil
}

func uniqueLabels(ls []string) []string {
	seen := map[string]struct{}{}
	var out []string
	for _, l := range ls {
		if _, dup := seen[l]; !dup {
			seen[l] = struct{}{}
			out = append(out, l)
		}
	}
	return out
}

// wordDFA is a rule target's DFA over alpha ∪ {⋆}, ⋆ being its Other
// column, with its live states (those reaching an accepting state). The
// word choices are the words of length ≤ L it accepts, then LONG if a
// state reached at depth L has a live successor.
type wordDFA struct {
	d       *ra.DFA
	letters []string // alpha, then starLabel
	cols    []int    // each letter's column
	live    []bool
}

func newWordDFA(a *ra.Automaton, alpha []string) *wordDFA {
	d := a.Determinize(alpha)
	w := &wordDFA{d: d, letters: append(slices.Clone(alpha), starLabel), live: slices.Clone(d.Accepts)}
	for _, l := range w.letters {
		w.cols = append(w.cols, d.Column(l))
	}
	for grew := true; grew; {
		grew = false
		for s := range d.Trans {
			if !w.live[s] && w.hasLive(s) {
				w.live[s], grew = true, true
			}
		}
	}
	return w
}

func (w *wordDFA) hasLive(s int) bool {
	return slices.ContainsFunc(w.d.Trans[s], func(t int) bool { return w.live[t] })
}

// count returns how many choices words lists, saturating at limit: a
// dynamic program over (depth, state), where ways[s] counts the live
// paths of the current length from the start to s.
func (w *wordDFA) count(L, limit int) int {
	add := func(a, b int) int { return min(a, limit-b) + b }
	ways, next := make([]int, len(w.d.Trans)), make([]int, len(w.d.Trans))
	if w.live[0] {
		ways[0] = 1
	}
	n, long := 0, false
	for depth := 0; depth <= L; depth++ {
		clear(next)
		for s, k := range ways {
			if k == 0 {
				continue
			}
			if w.d.Accepts[s] {
				n = add(n, k)
			}
			long = long || depth == L && w.hasLive(s)
			for _, c := range w.cols {
				if t := w.d.Trans[s][c]; w.live[t] {
					next[t] = add(next[t], k)
				}
			}
		}
		ways, next = next, ways
	}
	if long {
		n = add(n, 1)
	}
	return n
}

// words lists the word choices in depth-first order over alpha and then ⋆,
// followed by longMarker when the target accepts a word longer than L,
// polling ctx as it walks.
func (w *wordDFA) words(ctx context.Context, L int) ([][]string, error) {
	var out [][]string
	var err error
	long, visits := false, 0
	word := make([]string, 0, L)
	var walk func(s int)
	walk = func(s int) {
		if visits++; visits%1024 == 0 && err == nil {
			err = ctx.Err()
		}
		if !w.live[s] || err != nil {
			return
		}
		if w.d.Accepts[s] {
			out = append(out, slices.Clone(word))
		}
		if len(word) == L {
			long = long || w.hasLive(s)
			return
		}
		for i, c := range w.cols {
			word = append(word, w.letters[i])
			walk(w.d.Trans[s][c])
			word = word[:len(word)-1]
		}
	}
	if walk(0); err != nil {
		return nil, Canceled(err)
	}
	if long {
		out = append(out, longMarker)
	}
	return out, nil
}

// prop5Slot is one (rule, pair) requirement with its admissible words.
type prop5Slot struct {
	from, to datagraph.Node
	words    [][]string
}

// buildChoiceSolution materialises the canonical target for one choice
// combination: dom nodes plus one fresh path per slot spelling the chosen
// word (LONG becomes a ⋆-path of length |Q|+1, unusable by any match).
func buildChoiceSolution(gs *datagraph.Graph, domNodes []datagraph.Node, slots []prop5Slot,
	choice []int, L int) (*datagraph.Graph, error) {
	gt := datagraph.New()
	for _, n := range domNodes {
		gt.MustAddNode(n.ID, n.Value)
	}
	idPrefix, fresh := freshPrefix(gs, "_n", idOf), 0
	for i, s := range slots {
		word := s.words[choice[i]]
		if len(word) == 1 && word[0] == longMarker[0] {
			word = make([]string, L+1)
			for j := range word {
				word[j] = starLabel
			}
		}
		if len(word) == 0 {
			continue // ε: endpoints coincide, nothing to add
		}
		prev := s.from.ID
		for j := 0; j < len(word)-1; j++ {
			fresh++
			id := datagraph.NodeID(idPrefix + strconv.Itoa(fresh))
			gt.MustAddNode(id, datagraph.Null())
			gt.MustAddEdge(prev, word[j], id)
			prev = id
		}
		gt.MustAddEdge(prev, word[len(word)-1], s.to.ID)
	}
	return gt, nil
}
