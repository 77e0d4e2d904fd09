package datagraph

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// equalSnapshots asserts that two snapshots are indistinguishable through
// the evaluation surface snapshotText renders — identical, not merely
// isomorphic: labels and values are interned in first-occurrence order.
func equalSnapshots(t *testing.T, got, want *Snapshot) {
	t.Helper()
	if g, w := snapshotText(got), snapshotText(want); g != w {
		t.Fatalf("snapshots differ:\n got %s\nwant %s", g, w)
	}
}

// snapshotText renders a snapshot's interners, per-label edge lists, value
// ids and both adjacency directions, in their iteration orders.
func snapshotText(s *Snapshot) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d nodes, %d values, null %d\n", s.NumNodes(), s.NumValues(), s.NullValueID())
	for l := Label(0); int(l) < s.NumLabels(); l++ {
		fmt.Fprintf(&b, "%s:", s.LabelName(l))
		s.EachLabelEdge(l, func(f, to int32) { fmt.Fprintf(&b, " %d-%d", f, to) })
		b.WriteByte('\n')
	}
	for u := 0; u < s.NumNodes(); u++ {
		fmt.Fprintf(&b, "%d=%d:", u, s.ValueID(u))
		s.EachOut(u, func(l Label, v int32) { fmt.Fprintf(&b, " >%d/%d", l, v) })
		s.EachIn(u, func(l Label, v int32) { fmt.Fprintf(&b, " <%d/%d", l, v) })
		b.WriteByte('\n')
	}
	return b.String()
}

// TestDeltaFreezeMatchesFull is the cache-invalidation property test: after
// each delta — a random burst of AddNode/AddEdge/SetValue, with labels and
// values first appearing mid-stream, and nulls — the re-frozen snapshot must
// be identical to that of a fresh clone, and a re-freeze must never disturb
// a snapshot already handed out.
func TestDeltaFreezeMatchesFull(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		g := New()
		nodes := 0
		value := func(burst int) Value {
			// A value pool smaller than the node count forces id reuse, one
			// that grows per burst brings new values, and the occasional
			// null exercises the shared null id.
			if rng.Intn(4) == 0 {
				return Null()
			}
			return V(fmt.Sprintf("v%d", rng.Intn(3+burst)))
		}
		addNode := func(burst int) {
			g.MustAddNode(NodeID(fmt.Sprintf("n%d", nodes)), value(burst))
			nodes++
		}
		for i := 0; i < 1+rng.Intn(8); i++ {
			addNode(0)
		}
		for burst := 0; burst < 12; burst++ {
			for op := 0; op < rng.Intn(12); op++ {
				switch rng.Intn(5) {
				case 0:
					addNode(burst)
				case 1:
					g.SetValue(rng.Intn(nodes), value(burst))
				default:
					from := NodeID(fmt.Sprintf("n%d", rng.Intn(nodes)))
					to := NodeID(fmt.Sprintf("n%d", rng.Intn(nodes)))
					g.MustAddEdge(from, fmt.Sprintf("l%d", rng.Intn(1+burst/2)), to)
				}
			}
			prev := g.Snapshot()
			var before string
			if prev != nil {
				before = snapshotText(prev)
			}
			snap := g.Freeze()
			equalSnapshots(t, snap, g.Clone().Freeze())
			if g.Freeze() != snap {
				t.Fatalf("trial %d burst %d: freeze of an unchanged graph must return the cache", trial, burst)
			}
			if prev != nil && snapshotText(prev) != before {
				t.Fatalf("trial %d burst %d: a refreeze changed the snapshot it replaced", trial, burst)
			}
		}
	}
}

// TestDeltaFreezeNewLabelAndValue covers interning across a re-freeze:
// labels, values and the null first appearing after a freeze get the ids a
// fresh build assigns, and the previous snapshot's interners never see them.
func TestDeltaFreezeNewLabelAndValue(t *testing.T) {
	g := New()
	g.MustAddNode("a", V("x"))
	g.MustAddNode("b", V("y"))
	g.MustAddEdge("a", "p", "b")
	s1 := g.Freeze()
	labelsBefore, valuesBefore := s1.NumLabels(), s1.NumValues()

	g.MustAddNode("c", V("brand-new"))
	g.MustAddNode("d", Null())
	g.MustAddEdge("b", "q", "c")
	g.MustAddEdge("c", "p", "d")
	s2 := g.Freeze()

	if s1.NumLabels() != labelsBefore || s1.NumValues() != valuesBefore {
		t.Fatal("re-freeze mutated the previous snapshot's interners")
	}
	if _, ok := s1.LabelID("q"); ok {
		t.Fatal("previous snapshot must not see the new label")
	}
	if s1.NullValueID() != -1 {
		t.Fatal("previous snapshot must not see the new null")
	}
	if _, ok := s2.LabelID("q"); !ok || s2.NullValueID() < 0 {
		t.Fatal("re-frozen snapshot must intern the new label and the null")
	}
	equalSnapshots(t, s2, g.Clone().Freeze())
}

// TestCloneSnapshotIsolation: a clone never observes the parent's cached
// snapshot, and freezing the clone does not disturb the parent's cache.
func TestCloneSnapshotIsolation(t *testing.T) {
	g := New()
	g.MustAddNode("a", V("1"))
	g.MustAddNode("b", V("2"))
	g.MustAddEdge("a", "e", "b")
	s := g.Freeze()

	c := g.Clone()
	if c.Snapshot() != nil {
		t.Fatal("Clone must not inherit the parent's cached snapshot")
	}
	cs := c.Freeze()
	if cs == s {
		t.Fatal("a clone's snapshot must be its own")
	}
	if cs.Graph() != c || s.Graph() != g {
		t.Fatal("snapshots must point at their own graphs")
	}
	c.MustAddEdge("b", "e", "a")
	c.SetValue(0, V("9"))
	c.Freeze()
	if g.Snapshot() != s {
		t.Fatal("mutating and freezing a clone must not disturb the parent's cache")
	}
	if s.NumLabelEdges(0) != 1 {
		t.Fatal("parent snapshot changed after clone mutation")
	}
}

// TestCSRBinarySearchBoundaries is the regression test for the slot binary
// search: labels absent from a node (below, between and above its slots)
// and the last-slot boundary of the last node, where an off-by-one would
// read past the segment.
func TestCSRBinarySearchBoundaries(t *testing.T) {
	g := New()
	g.MustAddNode("u", V("1"))
	g.MustAddNode("v", V("2"))
	// Node u carries out-slots for a, b, d only, so lookups of c and e
	// miss (one falls between u's slots, one above them); node v carries
	// c, d, e, so a and b miss below, and its last slot is the final slot
	// of the snapshot.
	g.MustAddEdge("u", "a", "v")
	g.MustAddEdge("u", "b", "v")
	g.MustAddEdge("u", "d", "v")
	g.MustAddEdge("v", "c", "u")
	g.MustAddEdge("v", "e", "u")
	g.MustAddEdge("v", "d", "u")
	snap := g.Freeze()

	u, _ := g.IndexOf("u")
	v, _ := g.IndexOf("v")
	id := func(name string) Label {
		l, ok := snap.LabelID(name)
		if !ok {
			t.Fatalf("label %q missing", name)
		}
		return l
	}
	// u has a, b, d out-slots; c and e must miss cleanly.
	for _, name := range []string{"c", "e"} {
		if got := snap.OutLabeled(u, id(name)); got != nil {
			t.Fatalf("OutLabeled(u, %s) = %v, want nil", name, got)
		}
	}
	for _, name := range []string{"a", "b", "d"} {
		if got := snap.OutLabeled(u, id(name)); len(got) != 1 || int(got[0]) != v {
			t.Fatalf("OutLabeled(u, %s) = %v, want [v]", name, got)
		}
	}
	// v's out-slots are c, d, e; the d and e lookups cross the last-slot
	// boundary of the snapshot's final rows.
	for _, name := range []string{"c", "d", "e"} {
		if got := snap.OutLabeled(v, id(name)); len(got) != 1 || int(got[0]) != u {
			t.Fatalf("OutLabeled(v, %s) = %v, want [u]", name, got)
		}
	}
	for _, name := range []string{"a", "b"} {
		if got := snap.OutLabeled(v, id(name)); got != nil {
			t.Fatalf("OutLabeled(v, %s) = %v, want nil", name, got)
		}
	}
	// A label id past every interned label must miss on both nodes.
	if snap.OutLabeled(u, Label(snap.NumLabels())) != nil ||
		snap.OutLabeled(v, Label(snap.NumLabels())) != nil {
		t.Fatal("lookup of an out-of-range label must miss")
	}
}

// TestFreezeFull checks that the explicit from-scratch path builds a new
// snapshot even when the cached one is current, caches it, and matches
// Freeze's result.
func TestFreezeFull(t *testing.T) {
	g := New()
	g.MustAddNode("a", V("1"))
	g.MustAddNode("b", V("2"))
	g.MustAddEdge("a", "e", "b")
	g.Freeze()
	g.MustAddEdge("b", "e", "a")
	refrozen := g.Freeze()
	full := g.FreezeFull()
	if full == refrozen {
		t.Fatal("FreezeFull must build, not return the cache")
	}
	if g.Snapshot() != full {
		t.Fatal("FreezeFull must cache its result")
	}
	equalSnapshots(t, refrozen, full)
}
