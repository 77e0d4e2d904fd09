package datagraph

// Label is an interned edge label: a small dense integer assigned per
// snapshot in edge-insertion order. Interning happens once at Freeze time;
// evaluators then traverse by integer comparison and array offset instead
// of string hashing.
type Label int32

// NoLabel is the sentinel for "no such label in this snapshot".
const NoLabel Label = -1

// Snapshot is a frozen, interned evaluation form of a Graph: CSR
// (compressed-sparse-row) out/in adjacency grouped by interned label,
// per-label edge lists, and interned node values. It is immutable and safe
// to share across goroutines; the engine freezes a graph once per batch and
// every worker evaluates against the same snapshot.
//
// Every array is flat, built from the graph's edge log by counting sorts
// (see buildFull); a graph that grew since its last freeze is rebuilt in
// full.
// Only a SetValue-only change shares arrays with the previous snapshot: the
// topology is reused and the values are re-interned.
type Snapshot struct {
	g *Graph
	n int

	labels   []string
	labelIDs map[string]Label

	out csrDir
	in  csrDir

	// Per-label edge lists in insertion order: label l's edges are
	// (pairFrom[i], pairTo[i]) for i in [pairOff[l], pairOff[l+1]).
	pairOff          []int32
	pairFrom, pairTo []int32

	// Interned node values: valueID[u] ≥ 1 for every node; all null nodes
	// share nullID (−1 when the graph has no nulls). Id 0 is reserved so
	// register-automaton kernels can use it for "register unset".
	valueID   []int32
	nullID    int32
	numValues int

	topoVersion uint64
	valVersion  uint64
}

// csrDir is one direction (out or in) of the label-grouped adjacency. Node
// u's label slots are [rowOff[u], rowOff[u+1]), ascending by label; slot i
// holds labels[i] and the targets targets[slotOff[i]:slotOff[i+1]], in
// edge-insertion order.
type csrDir struct {
	rowOff  []int32 // n+1
	labels  []Label // per slot
	slotOff []int32 // len(labels)+1
	targets []int32
}

// NumNodes returns the number of nodes.
func (s *Snapshot) NumNodes() int { return s.n }

// NumLabels returns the number of distinct edge labels.
func (s *Snapshot) NumLabels() int { return len(s.labels) }

// NumValues returns the number of distinct interned values (nulls count
// once).
func (s *Snapshot) NumValues() int { return s.numValues }

// Graph returns the graph this snapshot was frozen from.
func (s *Snapshot) Graph() *Graph { return s.g }

// LabelID resolves a label string to its interned id; ok is false when the
// label does not occur in the graph (so no edge can match it).
func (s *Snapshot) LabelID(name string) (Label, bool) {
	l, ok := s.labelIDs[name]
	return l, ok
}

// LabelName returns the string form of an interned label.
func (s *Snapshot) LabelName(l Label) string { return s.labels[l] }

// ValueID returns the interned data value of node u (≥ 1; all nulls share
// NullValueID).
func (s *Snapshot) ValueID(u int) int32 { return s.valueID[u] }

// NullValueID returns the interned id of the SQL null value, or −1 when the
// graph has no null node.
func (s *Snapshot) NullValueID() int32 { return s.nullID }

// Value returns δ(u), delegating to the underlying graph.
func (s *Snapshot) Value(u int) Value { return s.g.Value(u) }

func (d *csrDir) labeled(u int, l Label) []int32 {
	lo, hi := d.rowOff[u], d.rowOff[u+1]
	end := hi
	// Binary search for l among u's slots. The overflow-safe midpoint
	// matters: slot offsets are int32 and lo+hi can exceed MaxInt32 on
	// snapshots with more than 2³⁰ slots.
	for lo < hi {
		mid := lo + (hi-lo)/2
		if d.labels[mid] < l {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < end && d.labels[lo] == l {
		return d.targets[d.slotOff[lo]:d.slotOff[lo+1]]
	}
	return nil
}

func (d *csrDir) all(u int) []int32 {
	return d.targets[d.slotOff[d.rowOff[u]]:d.slotOff[d.rowOff[u+1]]]
}

// each calls f for every half-edge of u's row: slots in ascending label
// id, targets in edge-insertion order within a slot.
func (d *csrDir) each(u int, f func(l Label, v int32)) {
	for slot := d.rowOff[u]; slot < d.rowOff[u+1]; slot++ {
		for _, v := range d.targets[d.slotOff[slot]:d.slotOff[slot+1]] {
			f(d.labels[slot], v)
		}
	}
}

// EachOut calls f for every outgoing edge (u, l, v) of u, grouped by label
// (ascending label id) and in edge-insertion order within a label.
func (s *Snapshot) EachOut(u int, f func(l Label, v int32)) { s.out.each(u, f) }

// EachIn calls f for every incoming edge (v, l, u) of u, in EachOut's order.
func (s *Snapshot) EachIn(u int, f func(l Label, v int32)) { s.in.each(u, f) }

// OutLabeled returns the successors of u along edges labeled l.
func (s *Snapshot) OutLabeled(u int, l Label) []int32 { return s.out.labeled(u, l) }

// InLabeled returns the predecessors of u along edges labeled l.
func (s *Snapshot) InLabeled(u int, l Label) []int32 { return s.in.labeled(u, l) }

// OutAll returns all successors of u (with duplicates per parallel label).
func (s *Snapshot) OutAll(u int) []int32 { return s.out.all(u) }

// InAll returns all predecessors of u.
func (s *Snapshot) InAll(u int) []int32 { return s.in.all(u) }

// OutDegree returns the number of outgoing edges of u.
func (s *Snapshot) OutDegree(u int) int { return len(s.out.all(u)) }

// HasOutLabeled reports whether u has at least one outgoing edge labeled l.
func (s *Snapshot) HasOutLabeled(u int, l Label) bool { return len(s.out.labeled(u, l)) > 0 }

// NumLabelEdges returns the number of edges labeled l.
func (s *Snapshot) NumLabelEdges(l Label) int { return int(s.pairOff[l+1] - s.pairOff[l]) }

// EachLabelEdge calls f for every edge labeled l as a (from, to) pair of
// dense indices, in edge-insertion order.
func (s *Snapshot) EachLabelEdge(l Label, f func(from, to int32)) {
	for i := s.pairOff[l]; i < s.pairOff[l+1]; i++ {
		f(s.pairFrom[i], s.pairTo[i])
	}
}

// HasEdge reports whether (u, l, v) is an edge, scanning the shorter of the
// two per-label adjacency slices.
func (s *Snapshot) HasEdge(u int, l Label, v int) bool {
	outs := s.out.labeled(u, l)
	ins := s.in.labeled(v, l)
	if len(ins) < len(outs) {
		for _, x := range ins {
			if int(x) == u {
				return true
			}
		}
		return false
	}
	for _, x := range outs {
		if int(x) == v {
			return true
		}
	}
	return false
}

// buildSnapshot compiles the graph into a snapshot. When prev matches the
// topology version exactly, only values changed (SetValue): every topology
// array is reused and values are re-interned. Otherwise it is a full build.
func buildSnapshot(g *Graph, prev *Snapshot) *Snapshot {
	if prev != nil && prev.topoVersion == g.topoVersion && prev.g == g {
		s := *prev
		s.valVersion = g.valVersion
		s.internValues()
		return &s
	}
	return buildFull(g)
}

// buildFull compiles the graph from scratch. Everything comes out of two
// stable counting sorts over the edge log — no per-node adjacency lists, no
// comparison sort.
func buildFull(g *Graph) *Snapshot {
	g.snapFull.Add(1)
	n, m := len(g.nodes), len(g.seq)
	s := &Snapshot{
		g: g, n: n,
		labelIDs:    make(map[string]Label),
		topoVersion: g.topoVersion,
		valVersion:  g.valVersion,
	}
	// Intern labels in edge-insertion order (deterministic), noting each
	// edge's label id so the passes below hash no strings.
	lab := make([]Label, m)
	for i := range g.seq {
		name := g.seq[i].Label
		l, ok := s.labelIDs[name]
		if !ok {
			l = Label(len(s.labels))
			s.labelIDs[name] = l
			s.labels = append(s.labels, name)
		}
		lab[i] = l
	}
	nl := len(s.labels)

	// Per-label edge lists: sort the log by label, stably so each list
	// keeps insertion order.
	s.pairOff = make([]int32, nl+1)
	for _, l := range lab {
		s.pairOff[l+1]++
	}
	for l := 0; l < nl; l++ {
		s.pairOff[l+1] += s.pairOff[l]
	}
	s.pairFrom = make([]int32, m)
	s.pairTo = make([]int32, m)
	fill := append([]int32(nil), s.pairOff[:nl]...)
	for i := range g.seq {
		at := fill[lab[i]]
		fill[lab[i]]++
		s.pairFrom[at] = g.seq[i].From
		s.pairTo[at] = g.seq[i].To
	}

	// CSR in both directions: sort the label-grouped lists by endpoint.
	at := make([]int32, n+1)
	s.out = countCSR(at, s.pairOff, s.pairFrom, s.pairTo, lab)
	s.in = countCSR(at, s.pairOff, s.pairTo, s.pairFrom, lab)
	s.internValues()
	return s
}

// countCSR compiles one CSR direction by a stable counting sort, on the row
// endpoint key, of edge lists already grouped by label (labelOff bounds
// each label's run of key/val) and in insertion order within a label. Rows
// therefore come out grouped by node, slots ascending by label, and targets
// in insertion order within a slot — what OutLabeled/InLabeled return. at
// (one entry per node plus one) and lab (one per edge) are scratch: at[u]
// is the cursor of u's targets during the sort, then each row's start.
func countCSR(at, labelOff, key, val []int32, lab []Label) csrDir {
	n := len(at) - 1
	clear(at)
	for _, k := range key {
		at[k+1]++
	}
	for u := 0; u < n; u++ {
		at[u+1] += at[u]
	}
	d := csrDir{rowOff: make([]int32, n+1), targets: make([]int32, len(key))}
	for l := 0; l+1 < len(labelOff); l++ {
		for i := labelOff[l]; i < labelOff[l+1]; i++ {
			j := at[key[i]]
			at[key[i]]++
			d.targets[j] = val[i]
			lab[j] = Label(l)
		}
	}
	// Each cursor stopped at its row's end, the next row's start.
	copy(at[1:], at[:n])
	at[0] = 0

	// A slot starts wherever the label changes within a row: count them,
	// then lay them out.
	opens := func(u int, j int32) bool { return j == at[u] || lab[j] != lab[j-1] }
	slots := 0
	for u := 0; u < n; u++ {
		for j := at[u]; j < at[u+1]; j++ {
			if opens(u, j) {
				slots++
			}
		}
	}
	d.labels = make([]Label, 0, slots)
	d.slotOff = make([]int32, 0, slots+1)
	for u := 0; u < n; u++ {
		d.rowOff[u] = int32(len(d.labels))
		for j := at[u]; j < at[u+1]; j++ {
			if opens(u, j) {
				d.labels = append(d.labels, lab[j])
				d.slotOff = append(d.slotOff, j)
			}
		}
	}
	d.rowOff[n] = int32(len(d.labels))
	d.slotOff = append(d.slotOff, int32(len(key)))
	return d
}

// repeated finds an edge a CSR direction holds twice — a slot listing one
// target twice — and returns it as (row, label, target). One stamp per
// node records the last slot that listed it.
func (d *csrDir) repeated() (u int, l Label, v int32, ok bool) {
	n := len(d.rowOff) - 1
	stamp := make([]int32, n)
	for u := 0; u < n; u++ {
		for slot := d.rowOff[u]; slot < d.rowOff[u+1]; slot++ {
			for _, v := range d.targets[d.slotOff[slot]:d.slotOff[slot+1]] {
				if stamp[v] == slot+1 {
					return u, d.labels[slot], v, true
				}
				stamp[v] = slot + 1
			}
		}
	}
	return 0, 0, 0, false
}

// internValues assigns dense ids (starting at 1) to the distinct data
// values of the graph; all null nodes share one id.
func (s *Snapshot) internValues() {
	g := s.g
	s.valueID = make([]int32, s.n)
	s.nullID = -1
	ids := make(map[string]int32, s.n)
	next := int32(1)
	for i := 0; i < s.n; i++ {
		v := g.nodes[i].Value
		if v.IsNull() {
			if s.nullID < 0 {
				s.nullID = next
				next++
			}
			s.valueID[i] = s.nullID
			continue
		}
		id, ok := ids[v.s]
		if !ok {
			id = next
			next++
			ids[v.s] = id
		}
		s.valueID[i] = id
	}
	s.numValues = int(next - 1)
}
