package datagraph

// This file is the byte-accounting layer behind the serving memory
// governor: SizeBytes estimates of the resident footprint of graphs,
// snapshots and pair sets. Estimates are deterministic and
// intentionally approximate — slice headers, map buckets and allocator
// slack are folded into flat per-entry constants — but they grow
// monotonically with the real footprint, which is all budget enforcement
// needs.

const (
	wordBytes      = 8  // one machine word: pointer, int, map value slot
	stringHeader   = 16 // string header (pointer + length)
	sliceHeader    = 24 // slice header (pointer + len + cap)
	mapEntryBytes  = 48 // rough per-entry bucket cost of a Go map
	mapBaseBytes   = 64 // fixed map header cost
	int32Bytes     = 4
	indexEdgeBytes = 2*int32Bytes + stringHeader
	pairEntryBytes = 8 // Pair: two int32 dense indices
)

// stringBytes estimates a string's resident footprint: header plus
// content. Shared backing arrays (interned ids reused across structures)
// are deliberately counted at every holder — the estimate prefers
// overcounting to undercounting.
func stringBytes(s string) int64 { return stringHeader + int64(len(s)) }

// valueBytes estimates a Value's footprint (string + null flag, padded).
func valueBytes(v Value) int64 { return stringBytes(v.s) + wordBytes }

// nodeBytes estimates one Node entry (id + value).
func nodeBytes(n Node) int64 { return stringBytes(string(n.ID)) + valueBytes(n.Value) }

// SizeBytes estimates the resident footprint of the graph: the node list,
// the id index and the edge log, plus every derived structure currently
// built on it (edge set, snapshot). It is the
// unit of account the server's memory governor sums per backend.
func (g *Graph) SizeBytes() int64 {
	var b int64
	for _, n := range g.nodes {
		// Node entry + its index map entry (the id string is counted once
		// here; the index key shares its backing array).
		b += nodeBytes(n) + mapEntryBytes
	}
	for _, e := range g.seq {
		// One edge-log entry; label content counted here.
		b += indexEdgeBytes + stringBytes(e.Label)
	}
	b += mapBaseBytes
	if g.edges.Load() != nil {
		// The derived edge set: one entry of three string headers per edge.
		b += mapBaseBytes + int64(len(g.seq))*(mapEntryBytes+3*stringHeader)
	}
	if s := g.snap.Load(); s != nil {
		b += s.SizeBytes()
	}
	return b
}

// SizeBytes estimates the snapshot's own storage: the label interner, both
// CSR directions, the per-label edge lists and the value ids. A
// SetValue-only refreeze shares the topology arrays with its predecessor;
// only the latest snapshot is cached on a graph, so counting them here never
// double-counts within one graph.
func (s *Snapshot) SizeBytes() int64 {
	b := int64(mapBaseBytes)
	for _, l := range s.labels {
		b += stringBytes(l) + mapEntryBytes
	}
	b += s.out.sizeBytes() + s.in.sizeBytes()
	b += int64(len(s.pairOff)+len(s.pairFrom)+len(s.pairTo)+len(s.valueID)) * int32Bytes
	return b
}

func (d *csrDir) sizeBytes() int64 {
	return int64(len(d.rowOff)+len(d.labels)+len(d.slotOff)+len(d.targets)) * int32Bytes
}

// SizeBytes estimates the pair set's footprint: map buckets in sparse
// mode, the bitmap in dense mode.
func (ps *PairSet) SizeBytes() int64 {
	if ps.m != nil {
		return mapBaseBytes + int64(len(ps.m))*(mapEntryBytes+pairEntryBytes)
	}
	return sliceHeader + int64(len(ps.rows))*wordBytes
}
