package datagraph

import (
	"fmt"
	"math/rand"
	"testing"
)

// randomIndexedGraph builds a random graph through the public mutation API,
// so snapshots are exercised exactly as production code builds them
// (incrementally, with duplicate-edge no-ops mixed in).
func randomIndexedGraph(t *testing.T, rng *rand.Rand, nodes, edges int, labels []string) *Graph {
	t.Helper()
	g := New()
	for i := 0; i < nodes; i++ {
		g.MustAddNode(NodeID(fmt.Sprintf("n%d", i)), V(fmt.Sprintf("d%d", rng.Intn(5))))
	}
	for e := 0; e < edges; e++ {
		from := NodeID(fmt.Sprintf("n%d", rng.Intn(nodes)))
		to := NodeID(fmt.Sprintf("n%d", rng.Intn(nodes)))
		g.MustAddEdge(from, labels[rng.Intn(len(labels))], to)
	}
	return g
}

// logScan is the naive reference every snapshot accessor is checked
// against: one pass over the edge log, in insertion order, keeping the
// edges that keep(from, label, to) selects, reported as (from, to) pairs.
func logScan(g *Graph, keep func(from int, label string, to int) bool) []Pair {
	var out []Pair
	for _, e := range g.seq {
		if keep(int(e.From), e.Label, int(e.To)) {
			out = append(out, Pair{From: int(e.From), To: int(e.To)})
		}
	}
	return out
}

// samePairs reports whether got lists exactly the pairs of want, in order.
func samePairs(got, want []Pair) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// TestSnapshotAgreesWithIndexes is the CSR property test: on random graphs
// built through the public mutation API, the snapshot's interned indexes
// (label spans, CSR rows in both directions, EachOut/EachIn) must agree
// with a scan of the edge log everywhere, order included.
func TestSnapshotAgreesWithIndexes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	labels := []string{"a", "b", "c", "d"}
	for trial := 0; trial < 40; trial++ {
		nodes := 1 + rng.Intn(25)
		edges := rng.Intn(80)
		g := randomIndexedGraph(t, rng, nodes, edges, labels)
		snap := g.Freeze()

		if snap.NumNodes() != g.NumNodes() {
			t.Fatalf("trial %d: snapshot has %d nodes, graph %d", trial, snap.NumNodes(), g.NumNodes())
		}
		for _, lab := range labels {
			pairs := logScan(g, func(_ int, l string, _ int) bool { return l == lab })
			l, ok := snap.LabelID(lab)
			if !ok {
				if len(pairs) != 0 {
					t.Fatalf("trial %d: label %q missing from interner but has edges", trial, lab)
				}
				continue
			}
			if snap.LabelName(l) != lab {
				t.Fatalf("trial %d: LabelName round-trip broke for %q", trial, lab)
			}
			if snap.NumLabelEdges(l) != len(pairs) {
				t.Fatalf("trial %d: NumLabelEdges(%q) = %d, log %d", trial, lab, snap.NumLabelEdges(l), len(pairs))
			}
			var spans []Pair
			snap.EachLabelEdge(l, func(from, to int32) { spans = append(spans, Pair{From: int(from), To: int(to)}) })
			if !samePairs(spans, pairs) {
				t.Fatalf("trial %d: EachLabelEdge(%q) = %v, log %v", trial, lab, spans, pairs)
			}
			for u := 0; u < nodes; u++ {
				var gotOut, gotIn []Pair
				for _, v := range snap.OutLabeled(u, l) {
					gotOut = append(gotOut, Pair{From: u, To: int(v)})
				}
				for _, v := range snap.InLabeled(u, l) {
					gotIn = append(gotIn, Pair{From: int(v), To: u})
				}
				wantOut := logScan(g, func(f int, l string, _ int) bool { return f == u && l == lab })
				wantIn := logScan(g, func(_ int, l string, to int) bool { return to == u && l == lab })
				if !samePairs(gotOut, wantOut) {
					t.Fatalf("trial %d: OutLabeled(%d,%q) = %v, log %v", trial, u, lab, gotOut, wantOut)
				}
				if !samePairs(gotIn, wantIn) {
					t.Fatalf("trial %d: InLabeled(%d,%q) = %v, log %v", trial, u, lab, gotIn, wantIn)
				}
				if snap.HasOutLabeled(u, l) != (len(wantOut) > 0) {
					t.Fatalf("trial %d: HasOutLabeled(%d,%q) wrong", trial, u, lab)
				}
				for v := 0; v < nodes; v++ {
					want := g.HasEdge(g.Node(u).ID, lab, g.Node(v).ID)
					if snap.HasEdge(u, l, v) != want {
						t.Fatalf("trial %d: HasEdge(%d,%q,%d) disagrees with the edge set", trial, u, lab, v)
					}
				}
			}
		}
		// OutAll/InAll/OutDegree count every half-edge, and EachOut/EachIn
		// walk a row label slot by label slot, in insertion order within a
		// slot.
		for u := 0; u < nodes; u++ {
			wantOut := logScan(g, func(f int, _ string, _ int) bool { return f == u })
			wantIn := logScan(g, func(_ int, _ string, to int) bool { return to == u })
			if len(snap.OutAll(u)) != len(wantOut) || snap.OutDegree(u) != len(wantOut) {
				t.Fatalf("trial %d: OutAll(%d) has %d targets, log %d", trial, u, len(snap.OutAll(u)), len(wantOut))
			}
			if len(snap.InAll(u)) != len(wantIn) {
				t.Fatalf("trial %d: InAll(%d) has %d targets, log %d", trial, u, len(snap.InAll(u)), len(wantIn))
			}
			var each, slots []Pair
			snap.EachOut(u, func(l Label, v int32) { each = append(each, Pair{From: int(l), To: int(v)}) })
			snap.EachIn(u, func(l Label, v int32) { each = append(each, Pair{From: int(l), To: int(v)}) })
			for l := 0; l < snap.NumLabels(); l++ {
				for _, v := range snap.OutLabeled(u, Label(l)) {
					slots = append(slots, Pair{From: l, To: int(v)})
				}
			}
			for l := 0; l < snap.NumLabels(); l++ {
				for _, v := range snap.InLabeled(u, Label(l)) {
					slots = append(slots, Pair{From: l, To: int(v)})
				}
			}
			if !samePairs(each, slots) {
				t.Fatalf("trial %d: EachOut/EachIn(%d) = %v, label slots %v", trial, u, each, slots)
			}
		}
	}
}

// TestSnapshotSurvivesCloneAndSpecialize: the derived-graph constructors
// freeze to the same per-label edge lists as their source.
func TestSnapshotSurvivesCloneAndSpecialize(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomIndexedGraph(t, rng, 12, 30, []string{"a", "b"})
	want := g.Freeze()
	for _, d := range []*Graph{g.Clone(), g.Specialize(map[NodeID]Value{"n0": V("zz")})} {
		got := d.Freeze()
		if d.NumEdges() != g.NumEdges() || got.NumLabels() != want.NumLabels() {
			t.Fatalf("derived graph lost edges: %d vs %d", d.NumEdges(), g.NumEdges())
		}
		for l := 0; l < want.NumLabels(); l++ {
			var a, b []Pair
			got.EachLabelEdge(Label(l), func(from, to int32) { a = append(a, Pair{From: int(from), To: int(to)}) })
			want.EachLabelEdge(Label(l), func(from, to int32) { b = append(b, Pair{From: int(from), To: int(to)}) })
			if !samePairs(a, b) {
				t.Fatalf("derived graph's %q edges %v, want %v", want.LabelName(Label(l)), a, b)
			}
		}
	}
}

// TestSnapshotValueInterning checks that interned value ids agree with
// value equality and that all nulls share one id.
func TestSnapshotValueInterning(t *testing.T) {
	g := New()
	g.MustAddNode("a", V("x"))
	g.MustAddNode("b", V("y"))
	g.MustAddNode("c", V("x"))
	g.MustAddNode("d", Null())
	g.MustAddNode("e", Null())
	snap := g.Freeze()
	if snap.ValueID(0) != snap.ValueID(2) {
		t.Fatal("equal values must intern to the same id")
	}
	if snap.ValueID(0) == snap.ValueID(1) {
		t.Fatal("distinct values must intern to distinct ids")
	}
	if snap.ValueID(3) != snap.NullValueID() || snap.ValueID(4) != snap.NullValueID() {
		t.Fatal("all nulls must share the null id")
	}
	if snap.NumValues() != 3 {
		t.Fatalf("NumValues = %d, want 3 (x, y, null)", snap.NumValues())
	}
	for i := 0; i < g.NumNodes(); i++ {
		if snap.ValueID(i) == 0 {
			t.Fatal("value ids must start at 1 (0 is the register-unset sentinel)")
		}
	}

	g2 := New()
	g2.MustAddNode("a", V("x"))
	if g2.Freeze().NullValueID() != -1 {
		t.Fatal("graph without nulls must report NullValueID −1")
	}
}

// TestFreezeCaching checks the snapshot cache lifecycle: stable pointer
// while unchanged, invalidation on mutation, CSR reuse across a
// SetValue-only change.
func TestFreezeCaching(t *testing.T) {
	g := New()
	g.MustAddNode("a", V("1"))
	g.MustAddNode("b", V("2"))
	g.MustAddEdge("a", "e", "b")

	s1 := g.Freeze()
	if g.Freeze() != s1 {
		t.Fatal("Freeze must return the cached snapshot while the graph is unchanged")
	}
	if g.Snapshot() != s1 {
		t.Fatal("Snapshot must return the cached snapshot while valid")
	}

	// Value-only mutation: cache invalid, rebuild shares the CSR arrays.
	g.SetValue(0, V("9"))
	if g.Snapshot() != nil {
		t.Fatal("Snapshot must be nil after SetValue")
	}
	s2 := g.Freeze()
	if s2 == s1 {
		t.Fatal("Freeze must rebuild after SetValue")
	}
	if &s2.out.targets[0] != &s1.out.targets[0] || &s2.in.rowOff[0] != &s1.in.rowOff[0] ||
		&s2.pairFrom[0] != &s1.pairFrom[0] {
		t.Fatal("a SetValue-only rebuild must reuse the CSR topology")
	}
	if s2.Value(0) != V("9") {
		t.Fatal("rebuilt snapshot must see the new value")
	}

	// Topology mutation: the rebuild must see the edge.
	g.MustAddEdge("b", "e", "a")
	if g.Snapshot() != nil {
		t.Fatal("Snapshot must be nil after AddEdge")
	}
	s3 := g.Freeze()
	if l, ok := s3.LabelID("e"); !ok || s3.NumLabelEdges(l) != 2 {
		t.Fatalf("rebuilt snapshot does not have 2 e-edges")
	}
}

// TestFreezeZeroGraph checks that the zero Graph freezes.
func TestFreezeZeroGraph(t *testing.T) {
	var g Graph
	snap := g.Freeze()
	if snap.NumNodes() != 0 || snap.NumLabels() != 0 {
		t.Fatal("zero graph must freeze to an empty snapshot")
	}
	g.MustAddNode("x", V("1"))
	if g.Snapshot() != nil {
		t.Fatal("mutation after freeze must invalidate")
	}
}

// TestIndexZeroGraph checks that a zero Graph grown by AddNode/AddEdge
// serves its edges through the snapshot's per-label adjacency accessors.
func TestIndexZeroGraph(t *testing.T) {
	var g Graph
	g.MustAddNode("x", V("1"))
	g.MustAddNode("y", V("2"))
	g.MustAddEdge("x", "a", "y")
	snap := g.Freeze()
	l, ok := snap.LabelID("a")
	if !ok {
		t.Fatal("label a missing on zero-value graph")
	}
	if got := snap.OutLabeled(0, l); len(got) != 1 || got[0] != 1 {
		t.Fatalf("OutLabeled on zero-value graph: %v", got)
	}
	if got := snap.InLabeled(1, l); len(got) != 1 || got[0] != 0 {
		t.Fatalf("InLabeled on zero-value graph: %v", got)
	}
	if !snap.HasEdge(0, l, 1) || snap.HasEdge(1, l, 0) {
		t.Fatal("HasEdge wrong on zero-value graph")
	}
	if n := snap.NumLabelEdges(l); n != 1 {
		t.Fatalf("NumLabelEdges on zero-value graph: %d", n)
	}
}

// TestSnapshotLargeDegree exercises a high-degree row: one node with 200
// out-edges over four labels, interleaved in the log.
func TestSnapshotLargeDegree(t *testing.T) {
	g := New()
	g.MustAddNode("hub", V("h"))
	labels := []string{"z", "y", "x", "w"}
	for i := 0; i < 200; i++ {
		id := NodeID(fmt.Sprintf("n%d", i))
		g.MustAddNode(id, V("v"))
		g.MustAddEdge("hub", labels[i%len(labels)], id)
	}
	snap := g.Freeze()
	hub, _ := g.IndexOf("hub")
	total := 0
	for _, lab := range labels {
		l, ok := snap.LabelID(lab)
		if !ok {
			t.Fatalf("label %q missing", lab)
		}
		var got []Pair
		for _, v := range snap.OutLabeled(hub, l) {
			got = append(got, Pair{From: hub, To: int(v)})
		}
		if want := logScan(g, func(f int, l string, _ int) bool { return f == hub && l == lab }); !samePairs(got, want) {
			t.Fatalf("OutLabeled(hub, %q) = %v, log %v", lab, got, want)
		}
		total += len(got)
	}
	if total != 200 {
		t.Fatalf("slots cover %d edges, want 200", total)
	}
}
