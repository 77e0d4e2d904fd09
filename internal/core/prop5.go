package core

import (
	"context"
	"fmt"
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

	// Per (rule, pair) choice sets.
	sourcePairs := mat.SourcePairs()
	var slots []prop5Slot
	total := 1
	for ri, r := range m.Rules {
		// The word alphabet: the query's labels and the labels the target
		// expression mentions concretely; wordChoices adds ⋆ for every
		// other label (reachable only through Any-transitions). Labels the
		// target names explicitly must stay concrete — collapsing them into
		// ⋆ would lose adversary choices like picking the c·c branch of
		// b | c·c to dodge a b query.
		alpha := uniqueLabels(append(append([]string{}, labels...),
			rex.Labels(r.Target.Expr())...))
		words := wordChoices(rex.Compile(r.Target.Expr()), alpha, L)
		if len(words) == 0 {
			// L(q′) over this alphabet is empty — impossible for the rex
			// grammar (no ∅), but guard against future extensions: a rule
			// with empty target language over a nonempty requirement set
			// admits no solution, making every pair certain.
			if sourcePairs[ri].Len() > 0 {
				return true, nil
			}
			continue
		}
		for _, p := range sourcePairs[ri].Sorted() {
			u, v := gs.Node(p.From), gs.Node(p.To)
			// ε-words demand u = v; filter them per pair.
			var usable [][]string
			for _, w := range words {
				if len(w) == 0 && u.ID != v.ID {
					continue
				}
				usable = append(usable, w)
			}
			if len(usable) == 0 {
				return true, nil // this pair admits no realisation: no solution
			}
			slots = append(slots, prop5Slot{from: u, to: v, words: usable})
			total *= len(usable)
			if total > opts.MaxChoices {
				return false, budgetErrf("core: %d word-choice combinations exceed budget %d",
					total, opts.MaxChoices)
			}
		}
	}

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

// wordChoices lists the adversary's words for a rule whose target compiles
// to a: the words of length ≤ L over alpha ∪ {⋆} that a accepts, in
// depth-first order over alpha and then ⋆, followed by longMarker when a
// accepts some word longer than L. It is one walk of a's DFA over alpha,
// whose Other column is ⋆, to depth L through the live states (those that
// reach an accepting state), so it only visits prefixes of accepted words;
// a accepts a longer word iff a state reached at depth L has a live
// successor.
func wordChoices(a *ra.Automaton, alpha []string, L int) [][]string {
	d := a.Determinize(alpha)
	letters := append(slices.Clone(alpha), starLabel)
	cols := make([]int, len(letters))
	for i, l := range letters {
		cols[i] = d.Column(l)
	}
	live := slices.Clone(d.Accepts)
	hasLive := func(s int) bool { return slices.ContainsFunc(d.Trans[s], func(t int) bool { return live[t] }) }
	for grew := true; grew; {
		grew = false
		for s := range d.Trans {
			if !live[s] && hasLive(s) {
				live[s], grew = true, true
			}
		}
	}
	var words [][]string
	long := false
	word := make([]string, 0, L)
	var walk func(s int)
	walk = func(s int) {
		if !live[s] {
			return
		}
		if d.Accepts[s] {
			words = append(words, slices.Clone(word))
		}
		if len(word) == L {
			long = long || hasLive(s)
			return
		}
		for i, c := range cols {
			word = append(word, letters[i])
			walk(d.Trans[s][c])
			word = word[:len(word)-1]
		}
	}
	walk(0)
	if long {
		words = append(words, longMarker)
	}
	return words
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
