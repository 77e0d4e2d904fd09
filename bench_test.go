package repro_test

// One benchmark per reproduction experiment (E1–E12, see
// internal/experiments). Each benchmark exercises the core operation whose
// complexity the corresponding paper result describes; cmd/gsmbench prints
// the full parameter sweeps as tables.
//
// This file is an external test package (repro_test) on purpose: it imports
// internal/experiments, which (via internal/server) depends on the repro
// facade — an import cycle if this file lived in package repro.

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagraph"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/gxpath"
	"repro/internal/ingest"
	"repro/internal/pcp"
	"repro/internal/ree"
	"repro/internal/relational"
	"repro/internal/rem"
	"repro/internal/rpq"
	"repro/internal/threecol"
	"repro/internal/workload"
)

var ctx = context.Background()

// mat opens a fresh materialization of (m, gs). The benchmarks open one per
// iteration, so every iteration pays for its solutions.
func mat(m *core.Mapping, gs *datagraph.Graph) *core.Materialization {
	return core.NewMaterialization(core.MustCompile(m), gs)
}

// E1 — Figure 1: GXPath-core~ evaluation on a random graph.
func BenchmarkE1GXPathEval(b *testing.B) {
	g := workload.RandomGraph(workload.GraphSpec{
		Nodes: 200, Edges: 600, Labels: []string{"a", "b"}, Values: 50, Seed: 1,
	})
	phi := gxpath.MustParseNode("<a (a- b)=> & !<b b>")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gxpath.NodesSatisfying(g, phi, datagraph.MarkedNulls)
	}
}

// E2 — Theorem 1: build the PCP gadget, its witness, and run all error
// detectors.
func BenchmarkE2PCPGadget(b *testing.B) {
	in := pcp.Instance{Tiles: []pcp.Tile{{U: "a", V: "ab"}, {U: "ba", V: "a"}}}
	seq, ok := in.Solve(8)
	if !ok {
		b.Fatal("instance should be satisfiable")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gd, err := pcp.BuildGadget(in)
		if err != nil {
			b.Fatal(err)
		}
		wit, err := gd.BuildWitness(seq)
		if err != nil {
			b.Fatal(err)
		}
		fired, err := gd.Errors(wit)
		if err != nil {
			b.Fatal(err)
		}
		if len(fired) != 0 {
			b.Fatalf("witness should be clean: %v", fired)
		}
	}
}

// E3 — Theorem 2/Prop 2: the exponential exact certain-answer search
// (3 nulls; the sweep over null counts lives in gsmbench).
func BenchmarkE3ExactCoNP(b *testing.B) {
	gs := workload.Chain(3, "e", 0)
	m := core.NewMapping(core.R("e", "p q"))
	q := ree.MustParseQuery("(p q)!=")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mat(m, gs).CertainExact(ctx, q, core.ExactOptions{MaxNulls: 3}); err != nil {
			b.Fatal(err)
		}
	}
}

// Prop 5: certain answers of a path-with-tests query under an arbitrary
// GSM. The pair is certain, so every word-choice combination's
// specialization search runs to completion.
func BenchmarkProp5DataPathArbitrary(b *testing.B) {
	gs := workload.Chain(2, "e", 0)
	m := core.NewMapping(core.R("e", "p q"), core.R("e", "r|s s"))
	q := ree.MustParseQuery("p q")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		certain, err := mat(m, gs).CertainDataPathArbitrary(ctx, q, "n0", "n1", core.Prop5Options{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		if !certain {
			b.Fatal("p q from n0 to n1 is certain")
		}
	}
}

// E4 — Prop 3: the 3-colorability reduction (triangle: colourable, so the
// adversary search short-circuits; K4 is the slow certain case, see
// gsmbench).
func BenchmarkE4ThreeCol(b *testing.B) {
	g := threecol.Graph{N: 3, Edges: [][2]int{{0, 1}, {1, 2}, {0, 2}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		certain, err := threecol.CertainNon3Colorable(g, core.ExactOptions{MaxNulls: 4})
		if err != nil {
			b.Fatal(err)
		}
		if certain {
			b.Fatal("triangle is 3-colourable")
		}
	}
}

// E5 — Prop 4: the one-inequality fixpoint on a 1000-edge chain.
func BenchmarkE5OneInequality(b *testing.B) {
	gs := workload.Chain(1000, "e", 0)
	m := core.NewMapping(core.R("e", "p q"))
	q := ree.MustParseQuery("(p q)!=")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mat(m, gs).CertainOneInequality(ctx, q, "n0", "n1", core.OneNeqOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// E6 — Theorem 3/4: the tractable SQL-null algorithm at a scale the exact
// oracle cannot touch.
func BenchmarkE6CertainNull(b *testing.B) {
	gs := workload.Chain(2000, "e", 3)
	m := core.NewMapping(core.R("e", "p q"))
	q := ree.MustParseQuery("(p q)!= | (p q)=")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mat(m, gs).CertainNull(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
}

// E7 — Remark 1: one underapproximation-quality sample (exact vs null).
func BenchmarkE7Approximation(b *testing.B) {
	gs := workload.RandomGraph(workload.GraphSpec{
		Nodes: 5, Edges: 7, Labels: []string{"a", "b"}, Values: 3, Seed: 7,
	})
	m := workload.RandomRelationalMapping(workload.MappingSpec{
		SourceLabels: []string{"a", "b"}, TargetLabels: []string{"p", "q"},
		Rules: 2, MaxWordLen: 2, Seed: 7,
	})
	q := ree.New(workload.RandomREEQuery(workload.QuerySpec{
		Labels: []string{"p", "q"}, Depth: 3, AllowNeq: true, Seed: 7,
	}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mt := mat(m, gs)
		exact, err := mt.CertainExact(ctx, q, core.ExactOptions{MaxNulls: 8})
		if err != nil {
			b.Fatal(err)
		}
		nullAns, err := mt.CertainNull(ctx, q)
		if err != nil {
			b.Fatal(err)
		}
		if !nullAns.SubsetOf(exact) {
			b.Fatal("underapproximation violated")
		}
	}
}

// E8 — Theorem 5: least-informative certain answers for an REM= query.
func BenchmarkE8EqualityOnly(b *testing.B) {
	gs := workload.Chain(1000, "e", 4)
	m := core.NewMapping(core.R("e", "p q"))
	q := rem.MustParseQuery("!x.(p (q[x=])?) q*")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mat(m, gs).CertainLeastInformative(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
}

// E9 — Prop 1: relational-encoding satisfaction check.
func BenchmarkE9RelationalEncoding(b *testing.B) {
	gs := workload.RandomGraph(workload.GraphSpec{
		Nodes: 30, Edges: 60, Labels: []string{"a", "b"}, Values: 10, Seed: 9,
	})
	m := core.NewMapping(core.R("a", "p q"), core.R("b", "r"))
	mr, err := relational.Encode(m)
	if err != nil {
		b.Fatal(err)
	}
	u, err := mat(m, gs).UniversalCtx(ctx)
	if err != nil {
		b.Fatal(err)
	}
	ds := relational.FromGraph(gs)
	dt := relational.FromGraph(u)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ok, why := mr.Satisfied(ds, dt); !ok {
			b.Fatal(why)
		}
	}
}

// E10 — Theorem 6/Lemma 2: tree-gadget construction plus the bounded
// avoiding-supergraph search.
func BenchmarkE10GXPathGadget(b *testing.B) {
	in := pcp.Instance{Tiles: []pcp.Tile{{U: "a", V: "b"}}}
	phi := gxpath.MustParseNode("!<x>")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tg, err := pcp.BuildTreeGadget(in)
		if err != nil {
			b.Fatal(err)
		}
		if _, ok := pcp.ExistsAvoidingSupergraph(tg.Tree, tg.Root, phi,
			pcp.SupergraphSearchOptions{MaxNewNodes: 0, MaxNewEdges: 1, Labels: []string{"x"}}); !ok {
			b.Fatal("avoidance should succeed")
		}
	}
}

// E11 — Theorem 7: ϕ_G ∧ ϕ_δ pin evaluation on the PCP tree.
func BenchmarkE11StaticAnalysis(b *testing.B) {
	tg, err := pcp.BuildTreeGadget(pcp.Instance{Tiles: []pcp.Tile{{U: "a", V: "b"}}})
	if err != nil {
		b.Fatal(err)
	}
	pg, err := gxpath.PhiG(tg.Tree, tg.Root)
	if err != nil {
		b.Fatal(err)
	}
	pd, err := gxpath.PhiDelta(tg.Tree, tg.Root)
	if err != nil {
		b.Fatal(err)
	}
	pin := gxpath.NAnd{L: pg, R: pd}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !gxpath.Satisfies(tg.Tree, tg.Root, pin, datagraph.MarkedNulls) {
			b.Fatal("tree must satisfy its own pin")
		}
	}
}

// E12 — Theorem 3 combined complexity: REE (Ptime) vs REM (register-driven)
// evaluation on the same graph.
func BenchmarkE12CombinedComplexity(b *testing.B) {
	g := workload.Chain(60, "a", 5)
	reeQ := ree.MustParseQuery("((a a)= a)=")
	remQ := rem.MustParseQuery("!x.(a !y.(a (a[x= | y!=])+))")
	b.Run("REE", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			reeQ.Eval(g, datagraph.MarkedNulls)
		}
	})
	b.Run("REM", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			remQ.Eval(g, datagraph.MarkedNulls)
		}
	})
}

// The experiment tables themselves (quick mode) — so `go test -bench .`
// regenerates every experiment table in one run.
func BenchmarkExperimentTablesQuick(b *testing.B) {
	for _, e := range experiments.All() {
		e := e
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Microbenchmarks for the substrates (used to track the E12 ablation:
// shared RA engine vs direct matcher).
func BenchmarkSubstrateREEMatchRA(b *testing.B) {
	q := ree.MustParseQuery(".* (.+)= .*")
	w := randomDataPath(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Match(w, datagraph.MarkedNulls)
	}
}

func BenchmarkSubstrateREEMatchDirect(b *testing.B) {
	e := ree.MustParse(".* (.+)= .*")
	w := randomDataPath(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ree.MatchDirect(e, w, datagraph.MarkedNulls)
	}
}

// Engine benchmarks (PR 1): the indexed worker-pool engine vs the
// sequential certain-answer path, on the acceptance workload of 200 nodes
// and 600 edges. Run with -bench 'EngineCertain' to reproduce the speedup
// reported in the PR description.

func engineWorkload() (*datagraph.Graph, *core.Mapping, []core.Query) {
	gs := workload.RandomGraph(workload.GraphSpec{
		Nodes: 200, Edges: 600, Labels: []string{"a", "b"}, Values: 40, Seed: 13,
	})
	m := core.NewMapping(core.R("a", "p q"), core.R("b", "r"))
	queries := []core.Query{
		ree.MustParseQuery("(p q)="),
		ree.MustParseQuery("(p q)!= | r"),
		ree.MustParseQuery("p (q r?)="),
		ree.MustParseQuery("(r)= (p q)*"),
		rem.MustParseQuery("!x.(p (q[x=])?) q*"),
		rem.MustParseQuery("!x.((p | r)[x!=]) (q)*"),
	}
	return gs, m, queries
}

// BenchmarkEngineCertainSequential is the baseline: one sequential
// Materialization.CertainNull per query on a fresh materialization,
// single-goroutine, as the pre-engine code ran.
func BenchmarkEngineCertainSequential(b *testing.B) {
	gs, m, queries := engineWorkload()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			if _, err := mat(m, gs).CertainNull(ctx, q); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkEngineCertainParallel runs the same workload through
// engine.EvalSolution: queries and source-node frontiers sharded across
// GOMAXPROCS workers over one universal solution per iteration.
func BenchmarkEngineCertainParallel(b *testing.B) {
	benchEngineCertain(b, engine.Options{})
}

// BenchmarkEngineCertainOneWorker isolates the index win from the
// parallelism win: the engine pipeline pinned to a single worker.
func BenchmarkEngineCertainOneWorker(b *testing.B) {
	benchEngineCertain(b, engine.Options{Workers: 1})
}

func benchEngineCertain(b *testing.B, opts engine.Options) {
	gs, m, queries := engineWorkload()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u, err := mat(m, gs).UniversalCtx(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := engine.EvalSolution(ctx, u, opts, queries...); err != nil {
			b.Fatal(err)
		}
	}
}

var adjacencyWord = []string{"a", "b", "a", "b"}

// adjacencyBenchLabels mimics a property-graph edge-type distribution: many
// labels, queries touching few. The graph is dense (average out-degree 30)
// so the CSR lookup by interned label jumps straight to the ~2-3 matching
// successors of each expansion.
var adjacencyBenchLabels = []string{
	"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l",
}

func adjacencyBenchGraph() *datagraph.Graph {
	return workload.RandomGraph(workload.GraphSpec{
		Nodes: 200, Edges: 6000, Labels: adjacencyBenchLabels, Values: 40, Seed: 17,
	})
}

// Dense-frontier benchmarks: expanding an all-nodes word frontier on the
// dense multi-label graph over the interned CSR snapshot with bitset
// frontiers, and through the real RPQ evaluator.

// frontierWalkBitset expands the all-nodes frontier along word on the
// frozen snapshot: CSR lookups by interned label, NodeSet frontiers.
func frontierWalkBitset(snap *datagraph.Snapshot, word []datagraph.Label) int {
	n := snap.NumNodes()
	cur, next := datagraph.NewNodeSet(n), datagraph.NewNodeSet(n)
	for u := 0; u < n; u++ {
		cur.Add(u)
	}
	for _, l := range word {
		next.Clear()
		cur.Each(func(node int) {
			for _, to := range snap.OutLabeled(node, l) {
				next.Add(int(to))
			}
		})
		cur, next = next, cur
	}
	return cur.Len()
}

// BenchmarkFrontierDenseBitset is the same expansion over the interned CSR
// snapshot with bitset frontiers.
func BenchmarkFrontierDenseBitset(b *testing.B) {
	g := adjacencyBenchGraph()
	snap := g.Freeze()
	word := make([]datagraph.Label, len(adjacencyWord))
	for i, name := range adjacencyWord {
		l, ok := snap.LabelID(name)
		if !ok {
			b.Fatalf("label %q missing from graph", name)
		}
		word[i] = l
	}
	// The walk must reach the targets the RPQ evaluator reports before we
	// measure its cost.
	targets := map[int]bool{}
	rpq.Word(adjacencyWord...).Eval(g).Each(func(p datagraph.Pair) { targets[p.To] = true })
	if got := frontierWalkBitset(snap, word); got != len(targets) {
		b.Fatalf("bitset walk found %d nodes, RPQ evaluator %d", got, len(targets))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frontierWalkBitset(snap, word)
	}
}

// BenchmarkFrontierRPQEval runs the same dense-frontier regime through the
// real RPQ evaluator end to end (snapshot kernel, dense PairSet answers).
func BenchmarkFrontierRPQEval(b *testing.B) {
	g := adjacencyBenchGraph()
	q := rpq.Word(adjacencyWord...)
	g.Freeze()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Eval(g)
	}
}

// BenchmarkFrontierReachability runs Σ* over the same dense graph: every
// start node reaches most of the graph, so the answer set is near n².
func BenchmarkFrontierReachability(b *testing.B) {
	g := adjacencyBenchGraph()
	q := rpq.Reachability()
	g.Freeze()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Eval(g)
	}
}

// scanQueries are serve-scan's eight navigational RPQs (bench/serving.go).
var scanQueries = []string{"p q", "r q", "p q r", "(p|r) q", "s t", "p q q", "r q p", "(p|r) q (p|r)"}

// BenchmarkScanQueriesKernel runs serve-scan's queries through full
// EvalRange over the canonical serving pair's universal solution (11 990
// nodes), once compiled as RPQs and once as REE queries without tests, so
// the two compilations of the same text are timed on the same graph. Setup
// fails unless both give the same pairs for every query.
func BenchmarkScanQueriesKernel(b *testing.B) {
	sc := workload.Serving(workload.ServingSpec{Nodes: 3000, Edges: 9000, Queries: 50, Seed: 16})
	u, err := mat(sc.Mapping, sc.Graph).UniversalCtx(ctx)
	if err != nil {
		b.Fatal(err)
	}
	n := u.NumNodes()
	var rpqs []*rpq.Query
	var rees []*ree.Query
	for _, text := range scanQueries {
		rq, err := rpq.Parse(text)
		if err != nil {
			b.Fatal(err)
		}
		eq, err := ree.ParseQuery(text)
		if err != nil {
			b.Fatal(err)
		}
		want, got := datagraph.NewPairSetSized(n), datagraph.NewPairSetSized(n)
		rq.EvalRange(u, 0, n, want.Add)
		eq.EvalRange(u, 0, n, datagraph.SQLNulls, got.Add)
		if !got.Equal(want) {
			b.Fatalf("%q: rpq gives %d pairs, ree %d", text, want.Len(), got.Len())
		}
		rpqs, rees = append(rpqs, rq), append(rees, eq)
	}
	count := func(int, int) {}
	b.Run("rpq", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, q := range rpqs {
				q.EvalRange(u, 0, n, count)
			}
		}
	})
	b.Run("ree", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, q := range rees {
				q.EvalRange(u, 0, n, datagraph.SQLNulls, count)
			}
		}
	})
}

func randomDataPath(n int) datagraph.DataPath {
	vals := make([]datagraph.Value, n+1)
	labels := make([]string, n)
	for i := 0; i <= n; i++ {
		vals[i] = datagraph.V(fmt.Sprintf("v%d", i%7))
		if i < n {
			labels[i] = "a"
		}
	}
	return datagraph.NewDataPath(vals, labels)
}

// canonicalLoadCSV renders the canonical relational load (4 000
// customers, 1 000 products, 15 000 orders, seed 16) to one CSV text
// source per table, the form the ingest-t2fca workload streams.
func canonicalLoadCSV() (*ingest.Schema, []ingest.Source) {
	d := workload.Relational(workload.RelationalSpec{Customers: 4000, Products: 1000, Orders: 15000, Seed: 16})
	srcs := make([]ingest.Source, 0, len(d.Schema.Tables))
	for i := range d.Schema.Tables {
		t := &d.Schema.Tables[i]
		var b strings.Builder
		for ci, c := range t.Columns {
			if ci > 0 {
				b.WriteByte(',')
			}
			b.WriteString(c.Name)
		}
		b.WriteByte('\n')
		for _, row := range d.Rows[t.Name] {
			b.WriteString(strings.Join(row, ","))
			b.WriteByte('\n')
		}
		srcs = append(srcs, ingest.CSVString(t.Name, b.String()))
	}
	return d.Schema, srcs
}

// BenchmarkIngestCanonicalLoad: the canonical load's 20 000 CSV rows
// through the direct mapping into a data graph (parse, map, write, build).
func BenchmarkIngestCanonicalLoad(b *testing.B) {
	schema, srcs := canonicalLoadCSV()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, _, err := ingest.Load(ctx, schema, ingest.Options{}, srcs...)
		if err != nil {
			b.Fatal(err)
		}
		if g.NumNodes() != 49000 || g.NumEdges() != 58232 {
			b.Fatalf("loaded %d nodes and %d edges, want 49000 and 58232", g.NumNodes(), g.NumEdges())
		}
	}
}
