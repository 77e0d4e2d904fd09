package repro

// Session-API benchmarks (the serving scenario of the session redesign): a
// stream of 50 distinct queries against one fixed (M, Gs) pair, as a
// certain-answer service would run it. A per-call session rebuilds the
// universal solution per query; one session memoizes it for the whole
// stream. Run with -bench QueryStream to reproduce the speedup reported in
// CHANGES.md (acceptance bar: ≥5×).

import (
	"context"
	"testing"

	"repro/internal/workload"
)

const sessionBenchQueries = 50

// sessionBenchWorkload is the serving scenario: a source graph whose bulk
// lives in two high-volume relations (a, b) plus one small hot relation
// (c), a mapping exchanging all three, and a stream of 50 selective
// path-with-tests queries against the hot relation's target labels. Per
// call, a per-call session pays solution materialization (proportional to the
// bulk); the queries themselves are cheap — the regime session memoization
// targets.
func sessionBenchWorkload() (*Graph, *Mapping, []Query) {
	gs := workload.RandomGraph(workload.GraphSpec{
		Nodes: 1000, Edges: 3000, Labels: []string{"a", "b", "c"},
		LabelWeights: []int{30, 30, 1}, Values: 200, Seed: 51,
	})
	m := NewMapping(R("a", "p q"), R("b", "r q"), R("c", "s t"))
	queries := workload.QueryStream(workload.QueryStreamSpec{
		Labels: []string{"s", "t"}, N: sessionBenchQueries,
		Shape: workload.ShapePaths, Depth: 2, AllowNeq: true, Seed: 51,
	})
	out := make([]Query, len(queries))
	for i, q := range queries {
		out[i] = q
	}
	return gs, m, out
}

// BenchmarkPerCallQueryStream is the unamortized serving cost: a fresh
// session per query, each re-deriving the universal solution and its
// snapshot.
func BenchmarkPerCallQueryStream(b *testing.B) {
	gs, m, queries := sessionBenchWorkload()
	cm := MustCompile(m)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			s, err := NewSession(cm, gs)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := s.CertainNull(ctx, q); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSessionQueryStream runs the same stream through one Session:
// compile once, materialize once, evaluate 50 queries against the shared
// memoized solution.
func BenchmarkSessionQueryStream(b *testing.B) {
	gs, m, queries := sessionBenchWorkload()
	cm := MustCompile(m)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := NewSession(cm, gs, WithChunkSize(256))
		if err != nil {
			b.Fatal(err)
		}
		for _, q := range queries {
			if _, err := s.CertainNull(ctx, q); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSessionQueryStreamPrepared is the fully-prepared variant:
// queries prepared and bound up front, mirroring a query cache in front of
// a serving deployment.
func BenchmarkSessionQueryStreamPrepared(b *testing.B) {
	gs, m, queries := sessionBenchWorkload()
	cm := MustCompile(m)
	ctx := context.Background()
	s, err := NewSession(cm, gs, WithChunkSize(256))
	if err != nil {
		b.Fatal(err)
	}
	prepared := make([]*PreparedQuery, len(queries))
	for i, q := range queries {
		prepared[i] = PrepareQuery(q)
		if err := prepared[i].Bind(ctx, s); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range prepared {
			if _, err := s.CertainNull(ctx, p); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSessionScanCycle is the benchmark harness's serve-scan query
// cycle without the server: the eight navigational RPQs over the bulk
// target relations on one warmed session of the canonical serving pair
// (11 990-node solution, ≈ 2 400 answers per query). It is where the
// alloc_space profiles in docs/BENCHMARKS.md come from.
func BenchmarkSessionScanCycle(b *testing.B) {
	sc := workload.Serving(workload.ServingSpec{Nodes: 3000, Edges: 9000, Queries: 50, Seed: 16})
	ctx := context.Background()
	s, err := NewSession(MustCompile(sc.Mapping), sc.Graph)
	if err != nil {
		b.Fatal(err)
	}
	var queries []Query
	for _, text := range []string{"p q", "r q", "p q r", "(p|r) q", "s t", "p q q", "r q p", "(p|r) q (p|r)"} {
		q, err := ParseRPQ(text)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.CertainNull(ctx, q); err != nil {
			b.Fatal(err)
		}
		queries = append(queries, q)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			if _, err := s.CertainNull(ctx, q); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSessionExchangeCold is the benchmark harness's exchange-cold op
// without the server: a one-shot session on the canonical serving pair and
// its first certain-answer query, which pays source pairs, the chase and
// the solution's freeze. It is where the exchange-cold profiles in
// docs/BENCHMARKS.md come from.
func BenchmarkSessionExchangeCold(b *testing.B) {
	sc := workload.Serving(workload.ServingSpec{Nodes: 3000, Edges: 9000, Queries: 50, Seed: 16})
	cm := MustCompile(sc.Mapping)
	ctx := context.Background()
	sc.Graph.Freeze() // a registered graph is frozen by its first session
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := NewSession(cm, sc.Graph)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.CertainNull(ctx, sc.Queries[i%len(sc.Queries)]); err != nil {
			b.Fatal(err)
		}
	}
}
