package core

import (
	"context"
	"errors"
	"slices"
	"strconv"
	"testing"
	"time"

	"repro/internal/datagraph"
	"repro/internal/ree"
	"repro/internal/rex"
)

func prop5Source(t *testing.T, sameValues bool) *datagraph.Graph {
	t.Helper()
	g := datagraph.New()
	g.MustAddNode("x", datagraph.V("1"))
	if sameValues {
		g.MustAddNode("y", datagraph.V("1"))
	} else {
		g.MustAddNode("y", datagraph.V("2"))
	}
	g.MustAddEdge("x", "a", "y")
	return g
}

func TestProp5AgreesWithRelationalOracle(t *testing.T) {
	// On relational mappings, the arbitrary-GSM procedure must agree with
	// CertainExactPair.
	gs := prop5Source(t, false)
	m := NewMapping(R("a", "b c"))
	for _, expr := range []string{"b c", "(b c)=", "(b c)!=", "b", "b= c"} {
		q := ree.MustParseQuery(expr)
		want, err := mat(m, gs).CertainExactPair(ctx, q, "x", "y", DefaultExactOptions())
		if err != nil {
			t.Fatal(err)
		}
		got, err := mat(m, gs).CertainDataPathArbitrary(ctx, q, "x", "y", Prop5Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: arbitrary %v vs relational oracle %v", expr, got, want)
		}
	}
}

func TestProp5ReachabilityRule(t *testing.T) {
	gs := prop5Source(t, false)
	// Σ* target: the adversary can always realise the requirement with a
	// path avoiding the query labels, so nothing is certain.
	m := NewMapping(R("a", ".*"))
	got, err := mat(m, gs).CertainDataPathArbitrary(ctx, ree.MustParseQuery("b"), "x", "y", Prop5Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Fatal("Σ* lets the adversary dodge any specific word")
	}
}

func TestProp5UnionChoice(t *testing.T) {
	gs := prop5Source(t, false)
	// Target b | c c: the adversary picks whichever word avoids the query.
	m := NewMapping(R("a", "b|c c"))
	got, err := mat(m, gs).CertainDataPathArbitrary(ctx, ree.MustParseQuery("b"), "x", "y", Prop5Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Fatal("adversary picks c·c to dodge the b query")
	}
	// But the disjunction-free demand b is certain when the only word is b.
	m2 := NewMapping(R("a", "b"))
	got2, err := mat(m2, gs).CertainDataPathArbitrary(ctx, ree.MustParseQuery("b"), "x", "y", Prop5Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !got2 {
		t.Fatal("b is forced")
	}
}

func TestProp5StarTarget(t *testing.T) {
	gs := prop5Source(t, false)
	// Target b⁺ (written b b*): words b, bb, bbb, … The query b·b is
	// dodged by choosing b (or any length ≠ 2 — including LONG).
	m := NewMapping(R("a", "b b*"))
	got, err := mat(m, gs).CertainDataPathArbitrary(ctx, ree.MustParseQuery("b b"), "x", "y", Prop5Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Fatal("b⁺ admits lengths other than 2")
	}
	// Query ⋆-free single b against target b: the one-letter prefix of
	// every b⁺ word... a match needs the full inserted path to have length
	// exactly 1, and the adversary picks longer: not certain either.
	got2, err := mat(m, gs).CertainDataPathArbitrary(ctx, ree.MustParseQuery("b"), "x", "y", Prop5Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got2 {
		t.Fatal("adversary inserts a longer b-path")
	}
}

func TestProp5DataTests(t *testing.T) {
	// Equal endpoint values: (b c)= is certain when the word b·c is forced
	// and the endpoints carry equal values.
	gsSame := prop5Source(t, true)
	m := NewMapping(R("a", "b c"))
	got, err := mat(m, gsSame).CertainDataPathArbitrary(ctx, ree.MustParseQuery("(b c)="), "x", "y", Prop5Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Fatal("(b c)= with equal constants must be certain")
	}
	// Distinct endpoint values: never.
	gsDiff := prop5Source(t, false)
	got2, err := mat(m, gsDiff).CertainDataPathArbitrary(ctx, ree.MustParseQuery("(b c)="), "x", "y", Prop5Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got2 {
		t.Fatal("(b c)= with distinct constants is impossible")
	}
	// Midpoint test: (b= c) compares x with the fresh midpoint — the
	// adversary gives the midpoint a different value.
	got3, err := mat(m, gsSame).CertainDataPathArbitrary(ctx, ree.MustParseQuery("b= c"), "x", "y", Prop5Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got3 {
		t.Fatal("midpoint value is adversary-controlled")
	}
}

func TestProp5Guards(t *testing.T) {
	gs := prop5Source(t, false)
	m := NewMapping(R("a", "b"))
	// Non-path query rejected.
	if _, err := mat(m, gs).CertainDataPathArbitrary(ctx, ree.MustParseQuery("b*"), "x", "y", Prop5Options{}); err == nil {
		t.Fatal("star query is not a path with tests")
	}
	// Missing endpoints are not certain.
	got, err := mat(m, gs).CertainDataPathArbitrary(ctx, ree.MustParseQuery("b"), "x", "ghost", Prop5Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Fatal("missing endpoint cannot be certain")
	}
	// Choice budget enforced.
	big := datagraph.New()
	big.MustAddNode("x", datagraph.V("1"))
	big.MustAddNode("y", datagraph.V("2"))
	big.MustAddEdge("x", "a", "y")
	wide := NewMapping(R("a", "b|c|d|e b|c c|d d"), R("a", "b|c|d|e b|c c|d d"))
	if _, err := mat(wide, big).CertainDataPathArbitrary(ctx, ree.MustParseQuery("b b"), "x", "y",
		Prop5Options{MaxChoices: 2}); err == nil {
		t.Fatal("choice budget must be enforced")
	}
}

func TestProp5EpsilonWords(t *testing.T) {
	// Self-loop with target (()|b): the adversary may pick ε (endpoints
	// coincide) and avoid any b-edge.
	gs := datagraph.New()
	gs.MustAddNode("x", datagraph.V("1"))
	gs.MustAddEdge("x", "a", "x")
	m := NewMapping(R("a", "()|b"))
	got, err := mat(m, gs).CertainDataPathArbitrary(ctx, ree.MustParseQuery("b"), "x", "x", Prop5Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Fatal("ε choice avoids the b-edge")
	}
	// Distinct endpoints make ε unusable: b becomes forced.
	gs2 := prop5Source(t, false)
	m2 := NewMapping(R("a", "()|b"))
	got2, err := mat(m2, gs2).CertainDataPathArbitrary(ctx, ree.MustParseQuery("b"), "x", "y", Prop5Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !got2 {
		t.Fatal("ε demands x = y; with x ≠ y the b word is forced")
	}
}

// TestProp5Parallel cross-checks the parallel Proposition 5 search against
// the sequential one on a small arbitrary (non-relational) mapping.
func TestProp5Parallel(t *testing.T) {
	gs := datagraph.New()
	gs.MustAddNode("u", datagraph.V("1"))
	gs.MustAddNode("v", datagraph.V("2"))
	gs.MustAddEdge("u", "a", "v")
	mt := mat(NewMapping(R("a", "p | q q")), gs)
	q := ree.MustParseQuery("(p)=")
	for _, pair := range [][2]datagraph.NodeID{{"u", "v"}, {"u", "u"}} {
		seq, err := mt.CertainDataPathArbitrary(ctx, q, pair[0], pair[1], Prop5Options{Workers: 0})
		if err != nil {
			t.Fatal(err)
		}
		par, err := mt.CertainDataPathArbitrary(ctx, q, pair[0], pair[1], Prop5Options{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if seq != par {
			t.Fatalf("pair %v: parallel Prop5 = %v, sequential = %v", pair, par, seq)
		}
	}
}

// TestProp5CancelsInsideSpecializations: a single word-choice combination
// whose specialization search alone runs for seconds (seven fresh nodes,
// eight source values) must still stop at the deadline.
func TestProp5CancelsInsideSpecializations(t *testing.T) {
	gs := prop5Source(t, false)
	for v := 10; v <= 15; v++ {
		gs.MustAddNode(datagraph.NodeID("i"+strconv.Itoa(v)), datagraph.V(strconv.Itoa(v)))
	}
	const word = "b c c c c c c c"
	const timeout = 50 * time.Millisecond
	tctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	start := time.Now()
	_, err := mat(NewMapping(R("a", word)), gs).CertainDataPathArbitrary(tctx, ree.MustParseQuery(word), "x", "y",
		Prop5Options{Workers: 1})
	elapsed := time.Since(start)
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want ErrCanceled wrapping context.DeadlineExceeded", err)
	}
	if elapsed > timeout+time.Second {
		t.Fatalf("returned %v after a %v deadline", elapsed, timeout)
	}
}

// TestProp5WordChoicesAgainstBruteForce checks the adversary's word choices
// against brute force: every word over alpha ∪ {⋆} of length ≤ L that the
// target accepts on null values, in depth-first order, then LONG exactly
// when some word of length L+1 … L+n+1 is accepted, n being the number of
// DFA states (a shortest accepted word longer than L is at most L+n long).
func TestProp5WordChoicesAgainstBruteForce(t *testing.T) {
	for _, target := range []string{"b", "b|c c", ".*", "b+ c?", "(b c)* b", ". b", "()"} {
		e := rex.MustParse(target)
		a := rex.Compile(e)
		alpha := uniqueLabels(append([]string{"b"}, rex.Labels(e)...))
		letters := append(slices.Clone(alpha), starLabel)
		n := len(a.Determinize(alpha).Trans)
		for L := 0; L <= 3; L++ {
			var want [][]string
			long := false
			var rec func(word []string)
			rec = func(word []string) {
				vals := make([]datagraph.Value, len(word)+1)
				for i := range vals {
					vals[i] = datagraph.Null()
				}
				if a.MatchDataPath(datagraph.NewDataPath(vals, word), datagraph.MarkedNulls) {
					if len(word) <= L {
						want = append(want, slices.Clone(word))
					} else {
						long = true
					}
				}
				if len(word) == L+n+1 {
					return
				}
				for _, l := range letters {
					rec(append(word, l))
				}
			}
			rec(nil)
			if long {
				want = append(want, longMarker)
			}
			got, err := newWordDFA(a, alpha).words(ctx, L)
			if err != nil || !slices.EqualFunc(got, want, slices.Equal[[]string]) {
				t.Errorf("%s, L=%d: word choices %q (%v), brute force %q", target, L, got, err, want)
			}
		}
	}
}

// TestProp5CountMatchesListing: counting the word choices agrees with
// listing them, ε included, and saturates at its limit.
func TestProp5CountMatchesListing(t *testing.T) {
	for _, target := range []string{"b", "b|c c", ".*", "b+ c?", "(b c)* b", ". b", "()"} {
		e := rex.MustParse(target)
		w := newWordDFA(rex.Compile(e), uniqueLabels(append([]string{"b"}, rex.Labels(e)...)))
		for L := 0; L <= 4; L++ {
			words, err := w.words(ctx, L)
			if err != nil {
				t.Fatal(err)
			}
			eps := len(words) > 0 && len(words[0]) == 0
			if n := w.count(L, 1<<20); n != len(words) || w.d.Accepts[0] != eps {
				t.Errorf("%s, L=%d: count %d (ε %v), listing %d (ε %v)", target, L, n, w.d.Accepts[0], len(words), eps)
			}
			if limit := 3; len(words) > limit {
				if n := w.count(L, limit); n != limit {
					t.Errorf("%s, L=%d: count saturates at %d, want %d", target, L, n, limit)
				}
			}
		}
	}
}

// TestProp5RefusesWithoutListing: under a -> .*, a 9-letter query over
// three labels has 349 525 word choices for the one source pair. The
// refusal reports that number, as the listing would, but counts instead of
// listing, so it comes back well within a 10 ms deadline.
func TestProp5RefusesWithoutListing(t *testing.T) {
	mt := mat(NewMapping(R("a", ".*")), prop5Source(t, false))
	q := ree.MustParseQuery("b c d b c d b c d")
	mt.SourcePairs()
	refuse := func() time.Duration {
		tctx, cancel := context.WithTimeout(ctx, 10*time.Millisecond)
		defer cancel()
		start := time.Now()
		_, err := mt.CertainDataPathArbitrary(tctx, q, "x", "y", Prop5Options{Workers: 1})
		elapsed := time.Since(start)
		const want = "search budget exceeded: core: 349525 word-choice combinations exceed budget 4096"
		if !errors.Is(err, ErrBudgetExceeded) || err.Error() != want {
			t.Fatalf("got %v, want %q", err, want)
		}
		return elapsed
	}
	best := refuse()
	for range 4 {
		best = min(best, refuse())
	}
	if best > time.Millisecond {
		t.Fatalf("refusal took %v, want under 1 ms", best)
	}
	if allocs := testing.AllocsPerRun(5, func() { refuse() }); allocs > 500 {
		t.Fatalf("refusal made %.0f allocations, want at most 500", allocs)
	}
}

// TestProp5LongQueryNarrowTarget: the word choices of a one-word target
// cost nothing however long the query, because the walk visits only
// prefixes of accepted words, not all 4¹⁶ words of the query's length.
func TestProp5LongQueryNarrowTarget(t *testing.T) {
	tctx, cancel := context.WithTimeout(ctx, time.Second)
	defer cancel()
	q := ree.MustParseQuery("b c d b c d b c d b c d b c d b")
	got, err := mat(NewMapping(R("a", "b")), prop5Source(t, false)).CertainDataPathArbitrary(tctx, q, "x", "y",
		Prop5Options{Workers: 1})
	if got || err != nil {
		t.Fatalf("got %v, %v; want false, nil within the deadline", got, err)
	}
}
