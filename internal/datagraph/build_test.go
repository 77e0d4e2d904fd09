package datagraph

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
)

// logOf returns a graph's node list and edge log, the input Build takes.
func logOf(g *Graph) ([]Node, []IndexEdge) {
	return g.Nodes(), append([]IndexEdge(nil), g.seq...)
}

// TestBuildMatchesIncremental: Build over the node list and edge log of a
// graph made by AddNode/AddEdge yields the same graph and the same
// snapshot, and its full freeze lists every (node, label) slot in
// edge-log order.
func TestBuildMatchesIncremental(t *testing.T) {
	labels := []string{"a", "b", "c", "d"}
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		want := randomIndexedGraph(t, rng, 1+rng.Intn(40), rng.Intn(160), labels)
		got, err := Build(logOf(want))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got.String() != want.String() || got.NumEdges() != want.NumEdges() {
			t.Fatalf("trial %d: Build differs from AddEdge:\n%s\nwant:\n%s", trial, got, want)
		}
		if full, delta := got.SnapshotBuilds(); full != 1 || delta != 0 {
			t.Fatalf("trial %d: Build paid %d full and %d delta builds, want 1 and 0", trial, full, delta)
		}
		snap := got.Snapshot()
		if snap == nil {
			t.Fatalf("trial %d: Build must return a frozen graph", trial)
		}
		equalSnapshots(t, snap, want.Freeze())
		for u := 0; u < want.NumNodes(); u++ {
			for _, lab := range labels {
				l, ok := snap.LabelID(lab)
				if !ok {
					continue
				}
				var out, in []Pair
				for _, v := range snap.OutLabeled(u, l) {
					out = append(out, Pair{From: u, To: int(v)})
				}
				for _, v := range snap.InLabeled(u, l) {
					in = append(in, Pair{From: int(v), To: u})
				}
				if wantOut := logScan(want, func(f int, l string, _ int) bool { return f == u && l == lab }); !samePairs(out, wantOut) {
					t.Fatalf("trial %d: OutLabeled(%d, %s) = %v, log %v", trial, u, lab, out, wantOut)
				}
				if wantIn := logScan(want, func(_ int, l string, to int) bool { return to == u && l == lab }); !samePairs(in, wantIn) {
					t.Fatalf("trial %d: InLabeled(%d, %s) = %v, log %v", trial, u, lab, in, wantIn)
				}
			}
		}
	}
}

// TestBuildRejectsMalformedInput: Build checks its input instead of
// trusting it — each malformed case is a typed error, never a panic.
func TestBuildRejectsMalformedInput(t *testing.T) {
	nodes := func() []Node {
		return []Node{{ID: "x", Value: V("1")}, {ID: "y", Value: Null()}, {ID: "z", Value: V("1")}}
	}
	cases := []struct {
		name  string
		nodes []Node
		edges []IndexEdge
		want  error
	}{
		{"duplicate id", append(nodes(), Node{ID: "y", Value: V("2")}), nil, ErrDuplicateNode},
		{"negative endpoint", nodes(), []IndexEdge{{From: -1, Label: "a", To: 0}}, ErrEdgeEndpoint},
		{"endpoint past the end", nodes(), []IndexEdge{{From: 0, Label: "a", To: 1}, {From: 2, Label: "a", To: 3}}, ErrEdgeEndpoint},
		{"endpoints and no nodes", nil, []IndexEdge{{From: 0, Label: "a", To: 0}}, ErrEdgeEndpoint},
		{"repeated edge", nodes(), []IndexEdge{{From: 0, Label: "a", To: 1}, {From: 2, Label: "a", To: 1}, {From: 0, Label: "b", To: 1}, {From: 0, Label: "a", To: 1}}, ErrDuplicateEdge},
		{"repeated self-loop", nodes(), []IndexEdge{{From: 2, Label: "a", To: 2}, {From: 2, Label: "a", To: 2}}, ErrDuplicateEdge},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%s: Build panicked: %v", c.name, r)
				}
			}()
			g, err := Build(c.nodes, c.edges)
			if !errors.Is(err, c.want) || g != nil {
				t.Fatalf("%s: Build = (%v, %v), want (nil, %v)", c.name, g, err, c.want)
			}
		}()
	}
	// Parallel edges under different labels and antiparallel edges are
	// distinct edges, not repeats.
	if _, err := Build(nodes(), []IndexEdge{{From: 0, Label: "a", To: 1}, {From: 0, Label: "b", To: 1}, {From: 1, Label: "a", To: 0}}); err != nil {
		t.Fatalf("distinct edges rejected: %v", err)
	}
	if g := New(); g.AddNode("x", V("1")) != nil || !errors.Is(g.AddNode("x", V("2")), ErrDuplicateNode) {
		t.Fatal("AddNode's duplicate-id error must be ErrDuplicateNode too")
	}
}

// TestEdgeSetIsDerived: a Build-made graph carries no edge set until
// something asks for one; SizeBytes charges the set only from then on, and
// AddEdge's set semantics hold on it.
func TestEdgeSetIsDerived(t *testing.T) {
	want := randomIndexedGraph(t, rand.New(rand.NewSource(7)), 30, 90, []string{"a", "b"})
	g, err := Build(logOf(want))
	if err != nil {
		t.Fatal(err)
	}
	before := g.SizeBytes()
	if g.edges.Load() != nil {
		t.Fatal("Build must not derive the edge set")
	}
	if c := g.Clone(); c.edges.Load() != nil {
		t.Fatal("Clone must not derive an edge set the original lacks")
	}
	e := want.Edges()[0]
	if !g.HasEdge(e.From, e.Label, e.To) || g.HasEdge(e.From, "absent", e.To) {
		t.Fatal("HasEdge disagrees with the log")
	}
	if after := g.SizeBytes(); after <= before {
		t.Fatalf("SizeBytes %d after the edge set was derived, want more than %d", after, before)
	}
	if !g.ContainsAllEdges(want) || !want.ContainsAllEdges(g) {
		t.Fatal("Build-made graph and its source must contain each other")
	}
	edges := g.NumEdges()
	g.MustAddEdge(e.From, e.Label, e.To)
	if g.NumEdges() != edges {
		t.Fatal("re-adding an existing edge must be a no-op")
	}
	g.MustAddEdge(e.To, "fresh", e.From)
	if g.NumEdges() != edges+1 || !g.HasEdge(e.To, "fresh", e.From) {
		t.Fatal("AddEdge on a Build-made graph lost the new edge")
	}
	if c := g.Clone(); !c.HasEdge(e.To, "fresh", e.From) || c.NumEdges() != g.NumEdges() {
		t.Fatal("Clone lost the derived edge set")
	}
}

// TestConcurrentHasEdge: the first HasEdge derives and publishes the edge
// set; concurrent first callers must agree and not race (run with -race).
func TestConcurrentHasEdge(t *testing.T) {
	want := randomIndexedGraph(t, rand.New(rand.NewSource(8)), 200, 800, []string{"a", "b", "c"})
	g, err := Build(logOf(want))
	if err != nil {
		t.Fatal(err)
	}
	edges := want.Edges()
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(edges); i += 8 {
				e := edges[i]
				if !g.HasEdge(e.From, e.Label, e.To) || g.HasEdge(e.To, e.Label+"x", e.From) {
					errs <- e.String()
					return
				}
			}
			_ = g.SizeBytes()
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Errorf("concurrent HasEdge got %s wrong", e)
	}
}
