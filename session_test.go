package repro

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/crpq"
	"repro/internal/workload"
)

// sessionTestWorkload builds a mid-size random exchange scenario plus a
// mixed query set.
func sessionTestWorkload(t testing.TB) (*Graph, *Mapping, []Query) {
	t.Helper()
	gs := workload.RandomGraph(workload.GraphSpec{
		Nodes: 120, Edges: 360, Labels: []string{"a", "b"}, Values: 30, Seed: 52,
	})
	m := NewMapping(R("a", "p q"), R("b", "r"))
	queries := []Query{
		MustREE("(p q)="),
		MustREE("(p q)!= | r"),
		MustREE("p (q r?)="),
		MustREM("!x.(p (q[x=])?) q*"),
	}
	rpq, err := ParseRPQ("p q | r")
	if err != nil {
		t.Fatal(err)
	}
	return gs, m, append(queries, rpq)
}

// mat opens a fresh materialization of (m, gs): the sequential reference
// sessions are checked against.
func mat(m *Mapping, gs *Graph) *core.Materialization {
	return core.NewMaterialization(MustCompile(m), gs)
}

func newTestSession(t testing.TB, gs *Graph, m *Mapping, opts ...Option) *Session {
	t.Helper()
	cm, err := Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(cm, gs, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSessionMatchesSequentialCore pins every session algorithm to the
// sequential core implementation over workload generators: memoization and
// engine sharding must not change a single answer.
func TestSessionMatchesSequentialCore(t *testing.T) {
	gs, m, queries := sessionTestWorkload(t)
	s := newTestSession(t, gs, m)
	ref := mat(m, gs)
	ctx := context.Background()
	for i, q := range queries {
		want, err := ref.CertainNull(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.CertainNull(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("query %d: session CertainNull %v != sequential %v", i, got, want)
		}
		wantLI, err := ref.CertainLeastInformative(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		gotLI, err := s.CertainLeastInformative(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if !gotLI.Equal(wantLI) {
			t.Fatalf("query %d: session CertainLeastInformative %v != sequential %v", i, gotLI, wantLI)
		}
	}
	// Batch evaluation agrees with per-query calls.
	batch, err := s.Eval(ctx, queries...)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		want, err := s.CertainNull(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if !batch[i].Equal(want) {
			t.Fatalf("query %d: batch answers differ from single-query answers", i)
		}
	}
}

// TestSessionMatchesLegacyOverQueryStream cross-validates a whole
// workload-generated query stream: the session must return exactly what a
// fresh materialization per query returns, query by query, across stream
// shapes.
func TestSessionMatchesLegacyOverQueryStream(t *testing.T) {
	gs := workload.RandomGraph(workload.GraphSpec{
		Nodes: 80, Edges: 240, Labels: []string{"a", "b", "c"},
		LabelWeights: []int{10, 10, 1}, Values: 20, Seed: 53,
	})
	m := NewMapping(R("a", "p q"), R("b", "r q"), R("c", "s t"))
	s := newTestSession(t, gs, m)
	ctx := context.Background()
	for _, shape := range []workload.StreamShape{workload.ShapeMixed, workload.ShapePaths} {
		queries := workload.QueryStream(workload.QueryStreamSpec{
			Labels: []string{"p", "q", "r", "s", "t"}, N: 6, Shape: shape,
			Depth: 2, AllowNeq: true, Seed: 53,
		})
		for i, q := range queries {
			want, err := mat(m, gs).CertainNull(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.CertainNull(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("shape %v query %d: session %v != per-query %v", shape, i, got, want)
			}
		}
	}
}

// TestSessionExactMatchesLegacy pins the session's exact search to a fresh
// materialization's on a small instance.
func TestSessionExactMatchesLegacy(t *testing.T) {
	gs := workload.Chain(3, "e", 2)
	m := NewMapping(R("e", "p q"))
	q := MustREE("(p q)!=")
	want, err := mat(m, gs).CertainExact(context.Background(), q, core.ExactOptions{MaxNulls: 5})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestSession(t, gs, m, WithMaxNulls(5))
	got, err := s.CertainExact(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("session exact %v != per-call %v", got, want)
	}
	// Pairwise decisions agree too.
	for _, a := range want.Sorted() {
		ok, err := s.CertainExactPair(context.Background(), q, a.From.ID, a.To.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("pair (%s, %s) in exact answers but CertainExactPair says no", a.From.ID, a.To.ID)
		}
	}
}

// TestSessionSharedRace hammers one shared session from GOMAXPROCS
// goroutines mixing prepared and ad-hoc queries across every algorithm —
// the -race acceptance test for the memoization gates.
func TestSessionSharedRace(t *testing.T) {
	gs, m, queries := sessionTestWorkload(t)
	s := newTestSession(t, gs, m, WithMaxNulls(12))
	ctx := context.Background()

	// Expected results, computed single-threaded.
	ref := mat(m, gs)
	want := make([]*Answers, len(queries))
	for i, q := range queries {
		ans, err := ref.CertainNull(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ans
	}
	prepared := make([]*PreparedQuery, len(queries))
	for i, q := range queries {
		prepared[i] = PrepareQuery(q)
	}

	workers := runtime.GOMAXPROCS(0) * 2
	const rounds = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				qi := (w + r) % len(queries)
				var q Query = queries[qi]
				if (w+r)%2 == 0 {
					q = prepared[qi] // prepared and ad-hoc interleave
				}
				switch (w + r) % 4 {
				case 0:
					got, err := s.CertainNull(ctx, q)
					if err != nil {
						errs <- err
						return
					}
					if !got.Equal(want[qi]) {
						t.Errorf("worker %d: CertainNull diverged on query %d", w, qi)
						return
					}
				case 1:
					if _, err := s.CertainLeastInformative(ctx, q); err != nil {
						errs <- err
						return
					}
				case 2:
					got := NewAnswers()
					for a, err := range s.CertainNullSeq(ctx, q) {
						if err != nil {
							errs <- err
							return
						}
						got.Add(a)
					}
					if !got.Equal(want[qi]) {
						t.Errorf("worker %d: CertainNullSeq diverged on query %d", w, qi)
						return
					}
				default:
					if _, err := s.Eval(ctx, q); err != nil {
						errs <- err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSessionSharedScratchRace has 8 goroutines run every snapshot kernel —
// rpq's product, word and reachability searches and ra's configuration
// search — against one session at once, over its solution and over its
// smaller source graph, so that pooled kernel scratches move between
// goroutines, kernels and snapshots of different sizes. Every result must
// equal the sequential one. Run with -race -count=10.
func TestSessionSharedScratchRace(t *testing.T) {
	gs, m, _ := sessionTestWorkload(t)
	s := newTestSession(t, gs, m)
	ctx := context.Background()
	var queries []Query
	for _, text := range []string{"p q | r", "p q", ".*", "(p | r)* q"} {
		q, err := ParseRPQ(text)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, q)
	}
	queries = append(queries, MustREE("(p q)="), MustREE("(p q)!= | r"), MustREE("p (q r?)="))
	onSource := []Query{MustREE("(a b)="), MustREE("(a | b)+ a!=")}
	nav, err := ParseRPQ("a (a | b)*")
	if err != nil {
		t.Fatal(err)
	}
	onSource = append(onSource, nav)

	// Expected results from the sequential algorithms, no engine involved.
	ref := mat(m, gs)
	want := make([]*Answers, len(queries))
	for i, q := range queries {
		if want[i], err = ref.CertainNull(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	wantSource := make([]*PairSet, len(onSource))
	for i, q := range onSource {
		wantSource[i] = q.Eval(gs, MarkedNulls)
	}

	const workers, rounds = 8, 6
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if (w+r)%3 == 0 {
					qi := (w + r) % len(onSource)
					got, err := s.EvalSource(ctx, onSource[qi])
					if err != nil {
						t.Error(err)
						return
					}
					if !got.Equal(wantSource[qi]) {
						t.Errorf("worker %d: EvalSource diverged on query %d", w, qi)
					}
					continue
				}
				qi := (w + r) % len(queries)
				got, err := s.CertainNull(ctx, queries[qi])
				if err != nil {
					t.Error(err)
					return
				}
				if !got.Equal(want[qi]) {
					t.Errorf("worker %d: CertainNull diverged on query %d", w, qi)
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestSessionSeqStreaming checks the iterator paths: full drains equal the
// materialized answers, and breaking early stops cleanly.
func TestSessionSeqStreaming(t *testing.T) {
	gs, m, queries := sessionTestWorkload(t)
	s := newTestSession(t, gs, m)
	ctx := context.Background()
	for i, q := range queries {
		want, err := s.CertainNull(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		got := NewAnswers()
		for a, err := range s.CertainNullSeq(ctx, q) {
			if err != nil {
				t.Fatal(err)
			}
			got.Add(a)
		}
		if !got.Equal(want) {
			t.Fatalf("query %d: streamed answers %v != materialized %v", i, got, want)
		}
		wantLI, err := s.CertainLeastInformative(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		gotLI := NewAnswers()
		for a, err := range s.CertainLeastInformativeSeq(ctx, q) {
			if err != nil {
				t.Fatal(err)
			}
			gotLI.Add(a)
		}
		if !gotLI.Equal(wantLI) {
			t.Fatalf("query %d: streamed LI answers diverged", i)
		}
		// Early break after the first answer must not panic or leak.
		n := 0
		for _, err := range s.CertainNullSeq(ctx, q) {
			if err != nil {
				t.Fatal(err)
			}
			n++
			break
		}
		if want.Len() > 0 && n != 1 {
			t.Fatalf("query %d: early break yielded %d answers", i, n)
		}
	}
}

// TestSessionOptionValidation checks every option's ErrBadOptions path at
// construction.
func TestSessionOptionValidation(t *testing.T) {
	gs, m, _ := sessionTestWorkload(t)
	cm, err := Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	bad := []Option{
		WithWorkers(-1),
		WithChunkSize(0),
		WithChunkSize(-3),
		WithMaxNulls(0),
		WithMaxNulls(-1),
		WithMaxExpansions(0),
		WithMaxChoices(-2),
		WithCompareMode(CompareMode(99)),
		WithTimeout(0),
		WithTimeout(-1),
	}
	for i, opt := range bad {
		if _, err := NewSession(cm, gs, opt); !errors.Is(err, ErrBadOptions) {
			t.Errorf("bad option %d: got %v, want ErrBadOptions", i, err)
		}
	}
	if _, err := NewSession(nil, gs); !errors.Is(err, ErrBadOptions) {
		t.Errorf("nil mapping: got %v", err)
	}
	if _, err := NewSession(cm, nil); !errors.Is(err, ErrBadOptions) {
		t.Errorf("nil graph: got %v", err)
	}
	// The materialization validates its search options too, without silent
	// clamping.
	if _, err := mat(m, gs).CertainExact(context.Background(), MustREE("(p q)="), core.ExactOptions{MaxNulls: -1}); !errors.Is(err, ErrBadOptions) {
		t.Errorf("CertainExact with negative MaxNulls: got %v, want ErrBadOptions", err)
	}
}

// TestSessionTypedErrors checks the sentinel taxonomy end to end.
func TestSessionTypedErrors(t *testing.T) {
	ctx := context.Background()

	// ErrInfinite: non-relational mapping has no finite universal solution.
	gs := workload.Chain(3, "e", 0)
	nonRel := NewMapping(R("e", "p*"))
	s := newTestSession(t, gs, nonRel)
	if _, err := s.CertainNull(ctx, MustREE("p")); !errors.Is(err, ErrInfinite) {
		t.Errorf("non-relational: got %v, want ErrInfinite", err)
	}

	// ErrNoSolution: an ε rule demanding two distinct nodes coincide.
	eps := NewMapping(R("e", "()"))
	s2 := newTestSession(t, gs, eps)
	if _, err := s2.UniversalSolution(ctx); !errors.Is(err, ErrNoSolution) {
		t.Errorf("ε-conflict: got %v, want ErrNoSolution", err)
	}

	// ErrBudgetExceeded: exact search over too many nulls.
	big := workload.Chain(30, "e", 0)
	m := NewMapping(R("e", "p q"))
	s3 := newTestSession(t, big, m, WithMaxNulls(2))
	if _, err := s3.CertainExact(ctx, MustREE("(p q)=")); !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("budget: got %v, want ErrBudgetExceeded", err)
	}
	// Prop 5's candidate solutions are bounded by the same WithMaxNulls.
	if _, err := s3.CertainDataPathArbitrary(ctx, MustREE("p q"), "n0", "n1"); !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("Prop 5 budget: got %v, want ErrBudgetExceeded", err)
	}

	// ErrCanceled wraps the context error on a pre-canceled context.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	s4 := newTestSession(t, big, m)
	if _, err := s4.CertainNull(cctx, MustREE("(p q)=")); !errors.Is(err, ErrCanceled) {
		t.Errorf("canceled: got %v, want ErrCanceled", err)
	} else if !errors.Is(err, context.Canceled) {
		t.Errorf("canceled: %v should also wrap context.Canceled", err)
	}
	s4small := newTestSession(t, gs, m)
	if _, err := s4small.CertainExact(cctx, MustREE("(p q)=")); !errors.Is(err, ErrCanceled) {
		t.Errorf("canceled exact: got %v, want ErrCanceled", err)
	}
	if _, err := s4small.CertainOneInequality(cctx, MustREE("(p q)!="), "n0", "n1"); !errors.Is(err, ErrCanceled) {
		t.Errorf("canceled oneneq: got %v, want ErrCanceled", err)
	}

	// ErrSourceMutated: the graph changed under the session.
	mut := workload.Chain(3, "e", 0)
	s5 := newTestSession(t, mut, m)
	if _, err := s5.CertainNull(ctx, MustREE("(p q)=")); err != nil {
		t.Fatal(err)
	}
	mut.MustAddNode("late", V("9"))
	if _, err := s5.CertainNull(ctx, MustREE("(p q)=")); !errors.Is(err, ErrSourceMutated) {
		t.Errorf("mutated: got %v, want ErrSourceMutated", err)
	}
}

// TestPreparedQueryAcrossSessions checks that one prepared query gives
// identical answers on two different sessions and via Bind.
func TestPreparedQueryAcrossSessions(t *testing.T) {
	gs, m, queries := sessionTestWorkload(t)
	gs2 := workload.RandomGraph(workload.GraphSpec{
		Nodes: 60, Edges: 150, Labels: []string{"a", "b"}, Values: 12, Seed: 99,
	})
	ctx := context.Background()
	s1 := newTestSession(t, gs, m)
	s2 := newTestSession(t, gs2, m)
	for i, q := range queries {
		p := PrepareQuery(q)
		if err := p.Bind(ctx, s1); err != nil {
			t.Fatal(err)
		}
		for si, s := range []*Session{s1, s2} {
			want, err := s.CertainNull(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.CertainNull(ctx, p)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("query %d session %d: prepared answers diverged", i, si)
			}
		}
	}
	if queries[0] != PrepareQuery(queries[0]).Unwrap() {
		t.Fatal("Unwrap should return the original query")
	}
}

// TestSessionEvalSource checks direct source-graph evaluation under the
// configured compare mode.
func TestSessionEvalSource(t *testing.T) {
	gs, m, _ := sessionTestWorkload(t)
	q := MustREE("(a b)=")
	for _, mode := range []CompareMode{MarkedNulls, SQLNulls} {
		s := newTestSession(t, gs, m, WithCompareMode(mode))
		got, err := s.EvalSource(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		want := q.Eval(gs, mode)
		if got.Len() != want.Len() {
			t.Fatalf("mode %v: engine source eval %d pairs, sequential %d", mode, got.Len(), want.Len())
		}
	}
}

// TestSessionCertainConjunctive checks conjunctive certain answers through a
// session on the crpq package's fixture: the answers equal crpq.Certain over
// a fresh universal solution, every call shares the session's memoized
// solution, and the session's cancellation and mutation guards apply.
func TestSessionCertainConjunctive(t *testing.T) {
	gs := NewGraph()
	gs.MustAddNode("ann", V("30"))
	gs.MustAddNode("bob", V("25"))
	gs.MustAddNode("carl", V("30"))
	gs.MustAddNode("p", V("graphs"))
	gs.MustAddEdge("ann", "knows", "bob")
	gs.MustAddEdge("bob", "knows", "carl")
	gs.MustAddEdge("ann", "likes", "p")
	gs.MustAddEdge("carl", "likes", "p")
	m := NewMapping(R("knows", "f f"), R("likes", "l"))
	s := newTestSession(t, gs, m)
	ctx := context.Background()
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	ref, err := mat(m, gs).UniversalCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}

	var shared *Graph
	for i, tc := range []struct {
		query string
		want  [][]NodeID
	}{
		{"ans(x, y) :- x -[f f]-> y, x -[l]-> w, y -[l]-> w", nil},
		{"ans(x, y) :- x -[f f f f]-> y, x -[l]-> w, y -[l]-> w", [][]NodeID{{"ann", "carl"}}},
		{"ans(x, y) :- x -[f]-> y", nil}, // tuples through null nodes are dropped
	} {
		q, err := ParseConjunctive(tc.query)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.CertainConjunctive(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := crpq.Certain(ref, q)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) || got.Len() != len(tc.want) {
			t.Fatalf("%s: answers %v, want %v", tc.query, got.Sorted(), want.Sorted())
		}
		for _, ids := range tc.want {
			if !got.Has(ids...) {
				t.Fatalf("%s: answers %v lack %v", tc.query, got.Sorted(), ids)
			}
		}
		// The first call memoized the solution: reading it back needs no
		// chase, so even a canceled context gets it, and it never changes.
		u, err := s.UniversalSolution(canceled)
		if err != nil {
			t.Fatalf("call %d left no memoized universal solution: %v", i, err)
		}
		if i == 0 {
			shared = u
		} else if u != shared {
			t.Fatalf("call %d: universal solution %p, want the shared %p", i, u, shared)
		}
	}

	q, err := ParseConjunctive("ans(x, y) :- x -[f f]-> y")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CertainConjunctive(canceled, q); !errors.Is(err, ErrCanceled) {
		t.Errorf("canceled: got %v, want ErrCanceled", err)
	}
	gs.MustAddNode("late", V("9"))
	if _, err := s.CertainConjunctive(ctx, q); !errors.Is(err, ErrSourceMutated) {
		t.Errorf("mutated: got %v, want ErrSourceMutated", err)
	}
}
