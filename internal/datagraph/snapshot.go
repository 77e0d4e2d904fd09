package datagraph

import (
	"maps"
	"sort"
)

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
// Snapshots are maintained incrementally. The graph's topology mutations
// are pure appends (AddNode extends the node list, AddEdge extends the edge
// log), so a snapshot records a watermark — the prefix of the node list and
// edge log it was built from — and the next Freeze after a small append
// burst merges just the delta into the previous snapshot instead of
// rebuilding from scratch (see buildDelta). Storage is copy-on-write:
// untouched adjacency rows, per-label edge spans, the label interner and
// the value interner are shared with the previous snapshot.
type Snapshot struct {
	g *Graph
	n int

	// frozenNodes/frozenEdges is the watermark into the graph's append-only
	// node list and edge log: this snapshot reflects exactly
	// g.nodes[:frozenNodes] and g.seq[:frozenEdges].
	frozenNodes int
	frozenEdges int

	labels   []string
	labelIDs map[string]Label

	out csrDir
	in  csrDir

	// Per-label edge lists in insertion order, as chains of append-only
	// segments (see EachLabelEdge). A delta
	// freeze extends a label's chain with one new span; existing spans are
	// shared with the previous snapshot.
	pairs []labelPairList

	// Interned node values: valueID[u] ≥ 1 for every node; all null nodes
	// share nullID (−1 when the graph has no nulls). Id 0 is reserved so
	// register-automaton kernels can use it for "register unset".
	valueID   []int32
	nullID    int32
	numValues int

	// valBase is the string→id interner built by the last full value pass;
	// valExtra overlays ids assigned by delta freezes since (checked first).
	// Both are immutable once the snapshot is published; a delta freeze that
	// meets a genuinely new value clones the overlay before extending it.
	valBase  map[string]int32
	valExtra map[string]int32
	valNext  int32

	topoVersion uint64
	valVersion  uint64
}

// csrSeg is one immutable storage segment of a CSR direction. A node's
// adjacency row lives entirely inside one segment: its label slots are
// consecutive in labels/slotOff and its targets consecutive in targets.
type csrSeg struct {
	labels  []Label // per slot, ascending within each row
	slotOff []int32 // len(labels)+1: target range per slot
	targets []int32
}

// csrRow locates one node's adjacency row: slot range [lo, hi) inside
// segment seg.
type csrRow struct {
	seg    int32
	lo, hi int32
}

// csrDir is one direction (out or in) of the label-grouped adjacency. A
// full build produces a single segment holding every row; each delta freeze
// appends one segment with the rebuilt rows of nodes touched by new
// half-edges (plus the rows of new nodes) and redirects only those rows —
// every other row keeps pointing into the older segments, which are shared
// between the snapshots.
type csrDir struct {
	rows []csrRow
	segs []*csrSeg

	// dead counts targets stored in older segments but no longer referenced
	// by any row (superseded by rewritten rows). It drives the compaction
	// heuristic: once garbage would exceed live edges, Freeze falls back to
	// a full rebuild.
	dead int
}

// pairSeg is one insertion-order span of a label's edge list.
type pairSeg struct {
	from, to []int32
}

// labelPairList is a label's edge list as a chain of spans in insertion
// order.
type labelPairList struct {
	segs  []pairSeg
	total int32
}

// NumNodes returns the number of nodes.
func (s *Snapshot) NumNodes() int { return s.n }

// Watermark returns the prefix of the graph's append-only node list and
// edge log this snapshot was built from. Together with
// Graph.SnapshotBuilds it lets bulk loaders assert that batched appends
// take the delta-merge path: after each batch's Freeze the watermark must
// advance while the full-rebuild counter stays put.
func (s *Snapshot) Watermark() (nodes, edges int) {
	return s.frozenNodes, s.frozenEdges
}

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
	r := d.rows[u]
	sg := d.segs[r.seg]
	lo, hi := r.lo, r.hi
	// Binary search for l among u's slots. The overflow-safe midpoint
	// matters: slot offsets are int32 and lo+hi can exceed MaxInt32 on
	// snapshots whose segments hold more than 2³⁰ slots.
	for lo < hi {
		mid := lo + (hi-lo)/2
		if sg.labels[mid] < l {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < r.hi && sg.labels[lo] == l {
		return sg.targets[sg.slotOff[lo]:sg.slotOff[lo+1]]
	}
	return nil
}

func (d *csrDir) all(u int) []int32 {
	r := d.rows[u]
	sg := d.segs[r.seg]
	return sg.targets[sg.slotOff[r.lo]:sg.slotOff[r.hi]]
}

// each calls f for every half-edge of u's row: slots in ascending label
// id, targets in edge-insertion order within a slot.
func (d *csrDir) each(u int, f func(l Label, v int32)) {
	r := d.rows[u]
	sg := d.segs[r.seg]
	for slot := r.lo; slot < r.hi; slot++ {
		for _, v := range sg.targets[sg.slotOff[slot]:sg.slotOff[slot+1]] {
			f(sg.labels[slot], v)
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
func (s *Snapshot) NumLabelEdges(l Label) int { return int(s.pairs[l].total) }

// EachLabelEdge calls f for every edge labeled l as a (from, to) pair of
// dense indices, in edge-insertion order. The edge list of a label is a
// chain of append-only spans (delta freezes extend it without copying), so
// iteration replaces the contiguous-slice accessor of earlier revisions.
func (s *Snapshot) EachLabelEdge(l Label, f func(from, to int32)) {
	for _, sp := range s.pairs[l].segs {
		for i := range sp.from {
			f(sp.from[i], sp.to[i])
		}
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

// Delta-freeze heuristics. A delta freeze is strictly better for small
// appends but loses to a full rebuild once the delta rivals the graph, the
// segment chain grows long (pointer-chasing and garbage) or rewritten rows
// have piled up too much garbage in old segments.
const (
	// maxCSRSegs caps the segment chain per direction.
	maxCSRSegs = 64
)

// canDeltaFreeze reports whether the cached snapshot prev can be extended
// to the current state of g by merging the appended suffix of the node list
// and edge log (the only topology mutation the Graph API allows).
func canDeltaFreeze(g *Graph, prev *Snapshot) bool {
	if prev == nil || prev.g != g {
		return false
	}
	// Defensive: the API keeps both logs append-only, so a cached snapshot
	// is always a prefix; never delta-merge if that invariant is broken.
	if prev.frozenNodes > len(g.nodes) || prev.frozenEdges > len(g.seq) {
		return false
	}
	if len(prev.out.segs) >= maxCSRSegs || len(prev.in.segs) >= maxCSRSegs {
		return false
	}
	if prev.out.dead+prev.in.dead > 2*len(g.seq) {
		return false
	}
	// A delta rivaling the live graph merges more than a rebuild costs.
	deltaN := len(g.nodes) - prev.frozenNodes
	deltaE := len(g.seq) - prev.frozenEdges
	return 4*(deltaN+deltaE) <= len(g.nodes)+len(g.seq)
}

// buildSnapshot compiles the graph into a snapshot. Three paths, cheapest
// first:
//
//   - prev matches the topology version exactly: only values changed
//     (SetValue), so every topology structure is reused and values are
//     re-interned;
//   - prev is a prefix of the current node list and edge log and the delta
//     is small: buildDelta merges the appended suffix into prev;
//   - otherwise: full rebuild.
func buildSnapshot(g *Graph, prev *Snapshot) *Snapshot {
	if prev != nil && prev.topoVersion == g.topoVersion && prev.g == g {
		s := &Snapshot{
			g: g, n: prev.n,
			frozenNodes: prev.frozenNodes, frozenEdges: prev.frozenEdges,
			labels: prev.labels, labelIDs: prev.labelIDs,
			out: prev.out, in: prev.in,
			pairs:       prev.pairs,
			topoVersion: g.topoVersion,
			valVersion:  g.valVersion,
		}
		s.internValuesFull()
		return s
	}
	if canDeltaFreeze(g, prev) {
		return buildDelta(g, prev)
	}
	return buildFull(g)
}

// buildFull compiles the graph from scratch: one CSR segment per direction,
// one span per label, fresh interners. Everything comes out of two stable
// counting sorts over the edge log — no per-node adjacency lists, no
// comparison sort.
func buildFull(g *Graph) *Snapshot {
	g.snapFull.Add(1)
	n, m := len(g.nodes), len(g.seq)
	s := &Snapshot{
		g: g, n: n,
		frozenNodes: n,
		frozenEdges: m,
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
	// keeps insertion order, then carve one span per label out of the two
	// backing arrays.
	pairOff := make([]int32, nl+1)
	for _, l := range lab {
		pairOff[l+1]++
	}
	for l := 0; l < nl; l++ {
		pairOff[l+1] += pairOff[l]
	}
	pairFrom := make([]int32, m)
	pairTo := make([]int32, m)
	fill := append([]int32(nil), pairOff[:nl]...)
	for i := range g.seq {
		at := fill[lab[i]]
		fill[lab[i]]++
		pairFrom[at] = g.seq[i].From
		pairTo[at] = g.seq[i].To
	}
	s.pairs = make([]labelPairList, nl)
	for l := 0; l < nl; l++ {
		lo, hi := pairOff[l], pairOff[l+1]
		s.pairs[l] = labelPairList{
			segs:  []pairSeg{{from: pairFrom[lo:hi:hi], to: pairTo[lo:hi:hi]}},
			total: hi - lo,
		}
	}

	// CSR in both directions: sort the label-grouped lists by endpoint.
	rowOff := make([]int32, n+1)
	s.out = countCSR(pairOff, pairFrom, pairTo, rowOff, lab)
	s.in = countCSR(pairOff, pairTo, pairFrom, rowOff, lab)
	s.internValuesFull()
	return s
}

// countCSR compiles one CSR direction by a stable counting sort, on the row
// endpoint key, of edge lists already grouped by label (labelOff bounds
// each label's run of key/val) and in insertion order within a label. Rows
// therefore come out grouped by node, slots ascending by label, and targets
// in insertion order within a slot — what OutLabeled/InLabeled return.
// rowOff (one entry per node plus one) and lab (one per edge) are scratch.
func countCSR(labelOff, key, val, rowOff []int32, lab []Label) csrDir {
	n := len(rowOff) - 1
	clear(rowOff)
	for _, k := range key {
		rowOff[k+1]++
	}
	for u := 0; u < n; u++ {
		rowOff[u+1] += rowOff[u]
	}
	seg := &csrSeg{targets: make([]int32, len(key))}
	for l := 0; l+1 < len(labelOff); l++ {
		for i := labelOff[l]; i < labelOff[l+1]; i++ {
			at := rowOff[key[i]]
			rowOff[key[i]]++
			seg.targets[at] = val[i]
			lab[at] = Label(l)
		}
	}
	// Each cursor stopped at its row's end, the next row's start.
	copy(rowOff[1:], rowOff[:n])
	rowOff[0] = 0

	// A slot starts wherever the label changes within a row: count them,
	// then lay them out.
	opens := func(u int, at int32) bool { return at == rowOff[u] || lab[at] != lab[at-1] }
	slots := 0
	for u := 0; u < n; u++ {
		for at := rowOff[u]; at < rowOff[u+1]; at++ {
			if opens(u, at) {
				slots++
			}
		}
	}
	seg.labels = make([]Label, 0, slots)
	seg.slotOff = make([]int32, 0, slots+1)
	d := csrDir{rows: make([]csrRow, n), segs: []*csrSeg{seg}}
	for u := 0; u < n; u++ {
		lo := int32(len(seg.labels))
		for at := rowOff[u]; at < rowOff[u+1]; at++ {
			if opens(u, at) {
				seg.labels = append(seg.labels, lab[at])
				seg.slotOff = append(seg.slotOff, at)
			}
		}
		d.rows[u] = csrRow{lo: lo, hi: int32(len(seg.labels))}
	}
	seg.slotOff = append(seg.slotOff, int32(len(key)))
	return d
}

// repeated finds an edge a single-segment CSR direction holds twice — a
// slot listing one target twice — and returns it as (row, label, target).
// One stamp per node records the last slot that listed it.
func (d *csrDir) repeated() (u int, l Label, v int32, ok bool) {
	seg := d.segs[0]
	stamp := make([]int32, len(d.rows))
	for u, r := range d.rows {
		for slot := r.lo; slot < r.hi; slot++ {
			for _, v := range seg.targets[seg.slotOff[slot]:seg.slotOff[slot+1]] {
				if stamp[v] == slot+1 {
					return u, seg.labels[slot], v, true
				}
				stamp[v] = slot + 1
			}
		}
	}
	return 0, 0, 0, false
}

// buildDelta extends prev to cover the appended suffix of the graph's node
// list and edge log: the label interner and per-label edge lists grow
// monotonically, only the CSR rows of nodes incident to new half-edges are
// rebuilt (into one fresh segment per direction), and everything untouched
// is shared with prev. Cost is O(V_rows + Δ + Σ deg(touched)) — the per-node
// row table and value-id array are copied, but none of the label slots,
// targets or pair spans of untouched nodes are.
func buildDelta(g *Graph, prev *Snapshot) *Snapshot {
	g.snapDelta.Add(1)
	n0, e0 := prev.frozenNodes, prev.frozenEdges
	n1, e1 := len(g.nodes), len(g.seq)
	delta := g.seq[e0:e1]

	s := &Snapshot{
		g: g, n: n1,
		frozenNodes: n1,
		frozenEdges: e1,
		labels:      prev.labels,
		labelIDs:    prev.labelIDs,
		topoVersion: g.topoVersion,
		valVersion:  g.valVersion,
	}

	// Extend the label interner monotonically: ids of existing labels are
	// stable, new labels take the next ids in first-appearance order —
	// exactly the ids a full rebuild over the whole log would assign. The
	// shared map and slice are cloned copy-on-write only if a new label
	// actually appears.
	internerCloned := false
	for i := range delta {
		name := delta[i].Label
		if _, ok := s.labelIDs[name]; !ok {
			if !internerCloned {
				s.labelIDs = maps.Clone(s.labelIDs)
				s.labels = s.labels[:len(s.labels):len(s.labels)]
				internerCloned = true
			}
			s.labelIDs[name] = Label(len(s.labels))
			s.labels = append(s.labels, name)
		}
	}
	nl := len(s.labels)

	// Per-label edge lists: one new span per label that gained edges,
	// appended to the (shared) chain.
	cnt := make([]int32, nl)
	for i := range delta {
		cnt[s.labelIDs[delta[i].Label]]++
	}
	off := make([]int32, nl+1)
	for l := 0; l < nl; l++ {
		off[l+1] = off[l] + cnt[l]
	}
	dFrom := make([]int32, len(delta))
	dTo := make([]int32, len(delta))
	fill := make([]int32, nl)
	for i := range delta {
		e := &delta[i]
		l := s.labelIDs[e.Label]
		at := off[l] + fill[l]
		fill[l]++
		dFrom[at] = e.From
		dTo[at] = e.To
	}
	s.pairs = make([]labelPairList, nl)
	copy(s.pairs, prev.pairs)
	for l := 0; l < nl; l++ {
		if cnt[l] == 0 {
			continue
		}
		lo, hi := off[l], off[l+1]
		lp := s.pairs[l]
		lp.segs = append(lp.segs[:len(lp.segs):len(lp.segs)],
			pairSeg{from: dFrom[lo:hi:hi], to: dTo[lo:hi:hi]})
		lp.total += cnt[l]
		s.pairs[l] = lp
	}

	// Per-direction delta half-edges, grouped by the endpoint whose row they
	// extend, in log order.
	dOut := make(map[int32][]slotEdge)
	dIn := make(map[int32][]slotEdge)
	for i := range delta {
		e := &delta[i]
		l := s.labelIDs[e.Label]
		dOut[e.From] = append(dOut[e.From], slotEdge{label: l, to: e.To})
		dIn[e.To] = append(dIn[e.To], slotEdge{label: l, to: e.From})
	}
	s.out = deltaCSR(&prev.out, n0, n1, dOut)
	s.in = deltaCSR(&prev.in, n0, n1, dIn)

	if prev.valVersion == g.valVersion {
		s.internValuesDelta(prev)
	} else {
		// Values were overwritten since prev; re-intern from scratch (the
		// same cost the SetValue-only reuse path already pays).
		s.internValuesFull()
	}
	return s
}

// deltaCSR extends one CSR direction: rows of old nodes with new half-edges
// are merged (old slots + delta, label order preserved) into one fresh
// segment, rows of new nodes are built there too, and every other row keeps
// pointing into the shared older segments.
func deltaCSR(prev *csrDir, n0, n1 int, deltaHE map[int32][]slotEdge) csrDir {
	seg := &csrSeg{}
	segIdx := int32(len(prev.segs))
	d := csrDir{
		rows: make([]csrRow, n1),
		segs: append(prev.segs[:len(prev.segs):len(prev.segs)], seg),
		dead: prev.dead,
	}
	copy(d.rows, prev.rows)

	// Touched old nodes, ascending for determinism.
	touched := make([]int32, 0, len(deltaHE))
	for u := range deltaHE {
		if int(u) < n0 {
			touched = append(touched, u)
		}
	}
	sort.Slice(touched, func(i, j int) bool { return touched[i] < touched[j] })

	for _, u := range touched {
		r := prev.rows[u]
		src := prev.segs[r.seg]
		d.dead += int(src.slotOff[r.hi] - src.slotOff[r.lo])
		des := deltaHE[u]
		sortSlotEdges(des)
		lo := int32(len(seg.labels))
		mergeRow(seg, src, r, des)
		d.rows[u] = csrRow{seg: segIdx, lo: lo, hi: int32(len(seg.labels))}
	}
	for u := n0; u < n1; u++ {
		des := deltaHE[int32(u)]
		sortSlotEdges(des)
		lo := int32(len(seg.labels))
		appendRow(seg, des)
		d.rows[u] = csrRow{seg: segIdx, lo: lo, hi: int32(len(seg.labels))}
	}
	seg.slotOff = append(seg.slotOff, int32(len(seg.targets)))
	return d
}

// mergeRow appends to dst the merge of one old row (slots already ascending
// by label) with its label-sorted delta half-edges. Within a label, old
// targets precede delta targets — exactly the order a full rebuild over the
// whole log produces, since old edges precede delta edges in the log and
// the slot sort is stable.
func mergeRow(dst, src *csrSeg, r csrRow, des []slotEdge) {
	si := r.lo
	di := 0
	for si < r.hi || di < len(des) {
		var l Label
		switch {
		case di >= len(des):
			l = src.labels[si]
		case si >= r.hi:
			l = des[di].label
		case src.labels[si] < des[di].label:
			l = src.labels[si]
		default:
			l = des[di].label
		}
		dst.labels = append(dst.labels, l)
		dst.slotOff = append(dst.slotOff, int32(len(dst.targets)))
		if si < r.hi && src.labels[si] == l {
			dst.targets = append(dst.targets, src.targets[src.slotOff[si]:src.slotOff[si+1]]...)
			si++
		}
		for di < len(des) && des[di].label == l {
			dst.targets = append(dst.targets, des[di].to)
			di++
		}
	}
}

// appendRow appends one row built from label-sorted half-edges to the
// segment.
func appendRow(seg *csrSeg, des []slotEdge) {
	for i := 0; i < len(des); {
		l := des[i].label
		seg.labels = append(seg.labels, l)
		seg.slotOff = append(seg.slotOff, int32(len(seg.targets)))
		for i < len(des) && des[i].label == l {
			seg.targets = append(seg.targets, des[i].to)
			i++
		}
	}
}

type slotEdge struct {
	label Label
	to    int32
}

// sortSlotEdges stable-sorts a node's half-edges by label. Degrees are
// small in practice, so an insertion sort (stable, allocation-free) beats
// sort.Slice, whose reflection closure allocates per call; genuinely large
// adjacency lists fall back to the library sort.
func sortSlotEdges(s []slotEdge) {
	if len(s) > 128 {
		sort.SliceStable(s, func(i, j int) bool { return s[i].label < s[j].label })
		return
	}
	for i := 1; i < len(s); i++ {
		e := s[i]
		j := i
		for j > 0 && s[j-1].label > e.label {
			s[j] = s[j-1]
			j--
		}
		s[j] = e
	}
}

// internValuesFull assigns dense ids (starting at 1) to the distinct data
// values of the graph; all null nodes share one id.
func (s *Snapshot) internValuesFull() {
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
	s.valBase = ids
	s.valExtra = nil
	s.valNext = next
	s.numValues = int(next - 1)
}

// internValuesDelta extends prev's value interning to the appended nodes.
// Valid only when no SetValue happened since prev: existing ids are then
// stable, and new values take the next ids in node order — the same ids a
// full pass assigns. New values extend a copy-on-write overlay so prev's
// interner is never mutated.
func (s *Snapshot) internValuesDelta(prev *Snapshot) {
	g := s.g
	s.valueID = make([]int32, s.n)
	copy(s.valueID, prev.valueID)
	s.nullID = prev.nullID
	s.valBase = prev.valBase
	s.valExtra = prev.valExtra
	next := prev.valNext
	extraCloned := false
	for i := prev.frozenNodes; i < s.n; i++ {
		v := g.nodes[i].Value
		if v.IsNull() {
			if s.nullID < 0 {
				s.nullID = next
				next++
			}
			s.valueID[i] = s.nullID
			continue
		}
		id, ok := s.valExtra[v.s]
		if !ok {
			id, ok = s.valBase[v.s]
		}
		if !ok {
			if !extraCloned {
				if s.valExtra == nil {
					s.valExtra = make(map[string]int32)
				} else {
					s.valExtra = maps.Clone(s.valExtra)
				}
				extraCloned = true
			}
			id = next
			next++
			s.valExtra[v.s] = id
		}
		s.valueID[i] = id
	}
	s.valNext = next
	s.numValues = int(next - 1)
}
