package datagraph

import (
	"errors"
	"fmt"
	"maps"
	"sort"
	"strings"
	"sync/atomic"
)

// NodeID identifies a node; ids are drawn from the countable set N of the
// paper. Within one graph no two nodes share an id.
type NodeID string

// Node is a pair (id, value) as in Section 2 of the paper.
type Node struct {
	ID    NodeID
	Value Value
}

// IsNullNode reports whether the node is a null node (n, n) of Section 7,
// i.e. its value is the SQL null.
func (n Node) IsNullNode() bool { return n.Value.IsNull() }

func (n Node) String() string { return fmt.Sprintf("(%s,%s)", string(n.ID), n.Value) }

// Edge is a labeled edge (v, a, v′).
type Edge struct {
	From  NodeID
	Label string
	To    NodeID
}

func (e Edge) String() string {
	return fmt.Sprintf("%s -%s-> %s", string(e.From), e.Label, string(e.To))
}

// IndexEdge is an edge with its endpoints as dense node indices: the entry
// type of the graph's insertion-order edge log and of Build. The log is what
// every derived structure (edge set, snapshots) is rebuilt
// from, deterministically. It is strictly append-only — as is the node list
// — which is what lets a cached Snapshot treat its (frozenNodes,
// frozenEdges) watermark as a prefix of the current state and freeze
// incrementally (see buildDelta).
type IndexEdge struct {
	From, To int32
	Label    string
}

// Graph is a data graph G = ⟨V, E⟩: a finite set of nodes with unique ids and
// a set of labeled edges E ⊆ V × Σ × V. Nodes are stored densely; evaluators
// address nodes by their index (0-based insertion order), while the public
// API also accepts NodeIDs.
//
// Mutation (AddNode/AddEdge/SetValue) maintains only the node list, the id
// index and the edge log; the two derived forms are built from them on
// first use. The edge set answers HasEdge. The frozen Snapshot (see Freeze)
// — interned labels and values with CSR adjacency, cached on the graph and
// shared by concurrent evaluators — is the only adjacency form: every
// traversal reads it.
//
// The zero Graph is empty and ready to use. A Graph is safe for concurrent
// readers once construction is complete; mutation is not synchronized.
type Graph struct {
	nodes []Node
	index map[NodeID]int
	seq   []IndexEdge

	// edges is the edge set, derived from seq on first need (see edgeSet)
	// and from then on maintained by AddEdge.
	edges atomic.Pointer[map[Edge]struct{}]

	// topoVersion counts node/edge insertions, valVersion value overwrites;
	// together they key the cached snapshot.
	topoVersion uint64
	valVersion  uint64
	snap        atomic.Pointer[Snapshot]

	// snapFull/snapDelta count snapshot constructions by kind (full rebuild
	// vs delta merge) over the graph's lifetime; see SnapshotBuilds.
	snapFull  atomic.Uint64
	snapDelta atomic.Uint64
}

// New returns an empty data graph.
func New() *Graph {
	return &Graph{index: make(map[NodeID]int)}
}

// The errors Build reports, each wrapped with the offending id or edge.
var (
	ErrDuplicateNode = errors.New("datagraph: duplicate node id")
	ErrEdgeEndpoint  = errors.New("datagraph: edge endpoint out of range")
	ErrDuplicateEdge = errors.New("datagraph: duplicate edge")
)

// Build constructs a graph from its complete node list and edge log
// (endpoints as dense indices into nodes), taking ownership of both, and
// returns it frozen by one counting sort over the log (see buildFull) —
// the graph AddNode/AddEdge in the same order would make, minus the edge
// set, which is derived on first need. It checks its input: a duplicate id,
// an endpoint outside [0, len(nodes)) or a repeated (from, label, to) is an
// error, never a silent no-op.
func Build(nodes []Node, edges []IndexEdge) (*Graph, error) {
	g := &Graph{nodes: nodes, index: make(map[NodeID]int, len(nodes)), seq: edges}
	for i, n := range nodes {
		if _, dup := g.index[n.ID]; dup {
			return nil, fmt.Errorf("%w %q", ErrDuplicateNode, string(n.ID))
		}
		g.index[n.ID] = i
	}
	for _, e := range edges {
		if e.From < 0 || int(e.From) >= len(nodes) || e.To < 0 || int(e.To) >= len(nodes) {
			return nil, fmt.Errorf("%w: (%d, %s, %d) over %d nodes", ErrEdgeEndpoint, e.From, e.Label, e.To, len(nodes))
		}
	}
	g.topoVersion = uint64(len(nodes) + len(edges))
	s := buildFull(g)
	if u, l, v, dup := s.out.repeated(); dup {
		return nil, fmt.Errorf("%w %s", ErrDuplicateEdge, Edge{From: nodes[u].ID, Label: s.labels[l], To: nodes[v].ID})
	}
	g.snap.Store(s)
	return g, nil
}

// AddNode inserts the node (id, value). It returns an error if the id is
// already present (node ids are unique within a data graph).
func (g *Graph) AddNode(id NodeID, value Value) error {
	if g.index == nil {
		g.index = make(map[NodeID]int)
	}
	if _, dup := g.index[id]; dup {
		return fmt.Errorf("%w %q", ErrDuplicateNode, string(id))
	}
	g.index[id] = len(g.nodes)
	g.nodes = append(g.nodes, Node{ID: id, Value: value})
	g.topoVersion++
	return nil
}

// MustAddNode is AddNode that panics on error; intended for tests and
// literals where duplicate ids are a programming error.
func (g *Graph) MustAddNode(id NodeID, value Value) {
	if err := g.AddNode(id, value); err != nil {
		panic(err)
	}
}

// AddEdge inserts the edge (from, label, to). Both endpoints must exist.
// Edges form a set: inserting an existing edge is a silent no-op.
func (g *Graph) AddEdge(from NodeID, label string, to NodeID) error {
	fi, ok := g.index[from]
	if !ok {
		return fmt.Errorf("datagraph: edge source %q not in graph", string(from))
	}
	ti, ok := g.index[to]
	if !ok {
		return fmt.Errorf("datagraph: edge target %q not in graph", string(to))
	}
	set := g.edgeSet()
	e := Edge{From: from, Label: label, To: to}
	if _, dup := set[e]; dup {
		return nil
	}
	set[e] = struct{}{}
	g.seq = append(g.seq, IndexEdge{From: int32(fi), To: int32(ti), Label: label})
	g.topoVersion++
	return nil
}

// edgeSet returns the edge set, deriving it from the log on first need.
// Concurrent readers may derive it redundantly; the first one published
// wins, so every caller sees the same map.
func (g *Graph) edgeSet() map[Edge]struct{} {
	if set := g.edges.Load(); set != nil {
		return *set
	}
	set := make(map[Edge]struct{}, len(g.seq))
	for _, e := range g.seq {
		set[Edge{From: g.nodes[e.From].ID, Label: e.Label, To: g.nodes[e.To].ID}] = struct{}{}
	}
	g.edges.CompareAndSwap(nil, &set)
	return *g.edges.Load()
}

// MustAddEdge is AddEdge that panics on error.
func (g *Graph) MustAddEdge(from NodeID, label string, to NodeID) {
	if err := g.AddEdge(from, label, to); err != nil {
		panic(err)
	}
}

// NumNodes returns |V|.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return len(g.seq) }

// Node returns the node at dense index i.
func (g *Graph) Node(i int) Node { return g.nodes[i] }

// NodeByID returns the node with the given id.
func (g *Graph) NodeByID(id NodeID) (Node, bool) {
	if g.index == nil {
		return Node{}, false
	}
	i, ok := g.index[id]
	if !ok {
		return Node{}, false
	}
	return g.nodes[i], true
}

// IndexOf returns the dense index of the node with the given id.
func (g *Graph) IndexOf(id NodeID) (int, bool) {
	if g.index == nil {
		return 0, false
	}
	i, ok := g.index[id]
	return i, ok
}

// HasEdge reports whether the edge (from, label, to) is present.
func (g *Graph) HasEdge(from NodeID, label string, to NodeID) bool {
	_, ok := g.edgeSet()[Edge{From: from, Label: label, To: to}]
	return ok
}

// Freeze compiles (or returns the cached) immutable Snapshot of the graph:
// interned labels and values with CSR adjacency. The snapshot is cached on
// the graph and invalidated by mutation, and rebuilding is incremental:
//
//   - a SetValue-only change re-interns values but reuses the CSR topology;
//   - an append burst (AddNode/AddEdge — the only topology mutation the API
//     allows) is merged into the previous snapshot as a delta, rebuilding
//     only the adjacency rows of nodes touched by new half-edges and
//     sharing everything else copy-on-write (O(Δ + Σ deg(touched)) plus two
//     O(V) table copies, instead of O(V+E));
//   - a full rebuild still happens when there is no usable cached snapshot,
//     when the delta rivals the live graph, or when accumulated delta
//     segments/garbage exceed the compaction thresholds.
//
// Freeze follows the graph's concurrency contract: any number of concurrent
// readers may call it (a race only builds the snapshot twice), but it must
// not run concurrently with mutation.
func (g *Graph) Freeze() *Snapshot {
	if s := g.snap.Load(); s != nil && s.topoVersion == g.topoVersion && s.valVersion == g.valVersion {
		return s
	}
	s := buildSnapshot(g, g.snap.Load())
	g.snap.Store(s)
	return s
}

// FreezeFull builds a from-scratch snapshot, bypassing both the cache and
// the delta-merge path, and caches the result. Delta-built and full-built
// snapshots are behaviourally identical; FreezeFull exists for
// cross-validation tests and for benchmarks that measure the rebuild cliff
// the delta path avoids.
func (g *Graph) FreezeFull() *Snapshot {
	s := buildFull(g)
	g.snap.Store(s)
	return s
}

// Snapshot returns the cached snapshot if it is still current, and nil
// otherwise — it never builds. Tests use it to observe whether an
// operation froze the graph or reused the cached snapshot.
func (g *Graph) Snapshot() *Snapshot {
	if s := g.snap.Load(); s != nil && s.topoVersion == g.topoVersion && s.valVersion == g.valVersion {
		return s
	}
	return nil
}

// SnapshotBuilds returns how many snapshot constructions the graph has
// paid for, split by kind: full is O(V+E) from-scratch rebuilds (including
// the first Freeze and every FreezeFull), delta is incremental merges of an
// append burst into the cached snapshot. Bulk ingestion asserts its batched
// appends amortize — full stays at 1 while delta grows — instead of
// tripping the rebuild cliff on every batch. Value-only refreshes (SetValue
// with unchanged topology) count as neither.
func (g *Graph) SnapshotBuilds() (full, delta uint64) {
	return g.snapFull.Load(), g.snapDelta.Load()
}

// Versions returns the graph's monotonic mutation counters: topology counts
// node/edge insertions, values counts SetValue overwrites. Long-lived
// handles (sessions) record them at construction and compare on use to
// detect a source graph mutated underneath memoized artifacts.
func (g *Graph) Versions() (topology, values uint64) {
	return g.topoVersion, g.valVersion
}

// Value returns δ(v) for the node at index i.
func (g *Graph) Value(i int) Value { return g.nodes[i].Value }

// Nodes returns a copy of the node list in dense-index order.
func (g *Graph) Nodes() []Node {
	out := make([]Node, len(g.nodes))
	copy(out, g.nodes)
	return out
}

// Edges returns the edge set in a deterministic (sorted) order.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, len(g.seq))
	for i := range g.seq {
		e := &g.seq[i]
		out = append(out, Edge{From: g.nodes[e.From].ID, Label: e.Label, To: g.nodes[e.To].ID})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		if out[i].Label != out[j].Label {
			return out[i].Label < out[j].Label
		}
		return out[i].To < out[j].To
	})
	return out
}

// Labels returns the set of edge labels used in the graph, sorted.
func (g *Graph) Labels() []string {
	set := make(map[string]struct{})
	for i := range g.seq {
		set[g.seq[i].Label] = struct{}{}
	}
	out := make([]string, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// Values returns the set of non-null data values occurring in the graph,
// sorted by their string form.
func (g *Graph) Values() []Value {
	set := make(map[Value]struct{})
	for _, n := range g.nodes {
		if !n.Value.IsNull() {
			set[n.Value] = struct{}{}
		}
	}
	out := make([]Value, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].s < out[j].s })
	return out
}

// Clone returns a deep copy of the graph. The node list, id index and edge
// log are copied directly — O(V + E), no sorting or re-hashing — and so is
// the edge set if it has been derived; every other derived structure is
// rebuilt lazily on first use.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		nodes: append([]Node(nil), g.nodes...),
		index: maps.Clone(g.index),
		seq:   append([]IndexEdge(nil), g.seq...),
	}
	if set := g.edges.Load(); set != nil {
		cs := maps.Clone(*set)
		c.edges.Store(&cs)
	}
	return c
}

// SetValue overwrites the data value of the node at dense index i. It is
// the in-place counterpart of Specialize, used by the certain-answer
// oracle, which evaluates queries over very many value specializations of
// one universal solution and cannot afford a graph clone per candidate.
func (g *Graph) SetValue(i int, v Value) {
	g.nodes[i].Value = v
	g.valVersion++
}

// Specialize returns a copy of the graph in which the value of each node is
// replaced according to assign; nodes absent from assign keep their value.
// It is used to build the value specializations σ(U) of a universal solution
// that the certain-answer oracle searches.
func (g *Graph) Specialize(assign map[NodeID]Value) *Graph {
	c := g.Clone()
	for id, v := range assign {
		if i, ok := c.index[id]; ok {
			c.nodes[i].Value = v
		}
	}
	return c
}

// Union returns a new graph containing all nodes and edges of g and h.
// Nodes with the same id must carry the same value in both graphs.
func Union(g, h *Graph) (*Graph, error) {
	// Start from a direct copy of g, then merge h through the normal
	// insertion path (which deduplicates shared edges).
	u := g.Clone()
	for _, n := range h.nodes {
		if prev, ok := u.NodeByID(n.ID); ok {
			if prev.Value != n.Value {
				return nil, fmt.Errorf("datagraph: union conflict on node %q: %s vs %s",
					string(n.ID), prev.Value, n.Value)
			}
			continue
		}
		u.MustAddNode(n.ID, n.Value)
	}
	for i := range h.seq {
		e := &h.seq[i]
		u.MustAddEdge(h.nodes[e.From].ID, e.Label, h.nodes[e.To].ID)
	}
	return u, nil
}

// ContainsAllEdges reports whether every edge of sub is an edge of g and
// every node of sub occurs in g with the same value (G′ ⊇ G in the paper's
// notation, as used in Lemma 2).
func (g *Graph) ContainsAllEdges(sub *Graph) bool {
	for _, n := range sub.nodes {
		m, ok := g.NodeByID(n.ID)
		if !ok || m.Value != n.Value {
			return false
		}
	}
	for _, e := range sub.seq {
		if !g.HasEdge(sub.nodes[e.From].ID, e.Label, sub.nodes[e.To].ID) {
			return false
		}
	}
	return true
}

// String renders the graph in the text format accepted by Parse.
func (g *Graph) String() string {
	var b strings.Builder
	for _, n := range g.nodes {
		if n.Value.IsNull() {
			fmt.Fprintf(&b, "node %s null\n", string(n.ID))
		} else {
			fmt.Fprintf(&b, "node %s %s\n", string(n.ID), n.Value.Raw())
		}
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(&b, "edge %s %s %s\n", string(e.From), e.Label, string(e.To))
	}
	return b.String()
}
