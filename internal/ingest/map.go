package ingest

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/datagraph"
)

// The direct mapping, per row. mapChunk runs in the parallel map stage of
// the pipeline: it coerces cells against declared types and lays each row
// out as the nodes and edges the single writer will collect. All errors it
// records are row-scoped (*RowError).

// layout is a table's direct mapping, resolved once per source so that no
// row pays for label concatenation or column lookups: per column, the
// label of the edge it emits and, for a foreign key, the referenced
// table's index (-1 for a property column; the key column's is unused).
// It also holds the fixed parts of the row's ids: the prefix "<table>:"
// and, per property column in column order, the cell id suffix
// ":<column>" that follows the row id.
type layout struct {
	t        *Table
	tab      int // the table's index in the schema
	pki      int // key column, or -1 for a keyless table
	labels   []string
	refs     []int
	prefix   string
	suffixes []string
	suffixN  int // total length of suffixes
}

func newLayout(s *Schema, tab int) *layout {
	t := &s.Tables[tab]
	lay := &layout{t: t, tab: tab, pki: t.PKIndex(), labels: make([]string, len(t.Columns)), refs: make([]int, len(t.Columns)), prefix: t.Name + ":"}
	for ci, c := range t.Columns {
		lay.labels[ci], lay.refs[ci] = t.EdgeLabel(c.Name), -1
		if fk, ok := t.fk(c.Name); ok {
			lay.labels[ci] = t.RefLabel(fk)
			lay.refs[ci] = slices.IndexFunc(s.Tables, func(r Table) bool { return r.Name == fk.RefTable })
		} else if ci != lay.pki {
			lay.suffixes = append(lay.suffixes, ":"+c.Name)
			lay.suffixN += 1 + len(c.Name)
		}
	}
	return lay
}

// cell is one property column's cell node of a mapped row.
type cell struct {
	id    datagraph.NodeID // <table>:<key>:<column>, set by writeIDs
	label string
	val   datagraph.Value
}

// ref is one foreign-key reference of a mapped row. NULL foreign keys emit
// no ref (the direct mapping drops the edge entirely).
type ref struct {
	label string
	tab   int    // referenced table index
	key   string // canonical rendering of the referenced primary key
}

// mappedRow is a coerced row ready for the writer, or the row-scoped error
// that rejects it.
type mappedRow struct {
	num   int              // 1-based data row number, for error reporting
	key   string           // canonical primary key (or ordinal for keyless tables), cut from id by writeIDs
	id    datagraph.NodeID // the row node's id, <table>:<key>, set by writeIDs
	cells []cell
	refs  []ref
	err   error
}

// mapChunk maps every row of c that the parse stage delivered whole, in
// two passes so that all of the chunk's ids are cut from one string. The
// first pass coerces each row and adds up the length of its ids; the
// second writes the ids of the rows that mapped into a builder grown once
// to that total, so a row that failed writes nothing.
func mapChunk(c *chunk) {
	c.cells, c.refs = c.cells[:0], c.refs[:0]
	n := 0
	for i := range c.out {
		if m := &c.out[i]; m.err == nil {
			if m.err = c.mapRow(c.rows[i], m); m.err == nil {
				n += c.lay.idBytes(m)
			}
		}
	}
	var b strings.Builder
	b.Grow(n)
	for i := range c.out {
		if m := &c.out[i]; m.err == nil {
			c.lay.writeIDs(&b, m)
		}
	}
}

// ordinal renders a keyless row's key into buf: rows of a keyless table
// are identified by their row number, mirroring the direct mapping's fresh
// row IRIs.
func ordinal(buf *[20]byte, num int) []byte { return strconv.AppendInt(buf[:0], int64(num), 10) }

// idBytes is the length of a mapped row's ids: the row id <table>:<key>
// and, per cell, the row id followed by the cell's suffix.
func (lay *layout) idBytes(m *mappedRow) int {
	key := len(m.key)
	if lay.pki < 0 {
		var buf [20]byte
		key = len(ordinal(&buf, m.num))
	}
	return (len(lay.prefix)+key)*(1+len(m.cells)) + lay.suffixN
}

// writeIDs appends a mapped row's ids to b and cuts them from it: b never
// changes the bytes it holds, so each substring stays valid. The row's key,
// a keyless row's ordinal included, is then cut from its id.
func (lay *layout) writeIDs(b *strings.Builder, m *mappedRow) {
	start := b.Len()
	b.WriteString(lay.prefix)
	if lay.pki < 0 {
		var buf [20]byte
		b.Write(ordinal(&buf, m.num))
	} else {
		b.WriteString(m.key)
	}
	m.id = datagraph.NodeID(b.String()[start:])
	m.key = string(m.id[len(lay.prefix):])
	for j := range m.cells {
		start := b.Len()
		b.WriteString(string(m.id))
		b.WriteString(lay.suffixes[j])
		m.cells[j].id = datagraph.NodeID(b.String()[start:])
	}
}

// mapRow coerces one raw row into m, whose cells and refs share the
// chunk's reused arrays; a row that fails leaves them as it found them.
// Its ids are written afterwards, by writeIDs.
func (c *chunk) mapRow(row Row, m *mappedRow) error {
	lay, t := c.lay, c.lay.t
	c0, r0 := len(c.cells), len(c.refs)
	fail := func(err error) error {
		c.cells, c.refs = c.cells[:c0], c.refs[:r0]
		return rowErr(t.Name, row.Num, err)
	}
	m.num = row.Num
	if pki := lay.pki; pki >= 0 {
		if row.Nulls[pki] {
			return fail(fmt.Errorf("%w: column %q", ErrNullPK, t.Columns[pki].Name))
		}
		key, err := Coerce(t.Columns[pki].Type, row.Cells[pki])
		if err != nil {
			return fail(fmt.Errorf("column %q: %w", t.Columns[pki].Name, err))
		}
		m.key = key
	}
	for ci := range t.Columns {
		if ci == lay.pki {
			continue
		}
		col := &t.Columns[ci]
		if lay.refs[ci] >= 0 {
			if row.Nulls[ci] {
				continue // NULL foreign key: no edge
			}
			refKey, err := Coerce(col.Type, row.Cells[ci])
			if err != nil {
				return fail(fmt.Errorf("column %q: %w", col.Name, err))
			}
			// Two foreign keys may share a label and a target; edges form
			// a set, so the row gets one edge.
			if r := (ref{label: lay.labels[ci], tab: lay.refs[ci], key: refKey}); !slices.Contains(c.refs[r0:], r) {
				c.refs = append(c.refs, r)
			}
			continue
		}
		out := cell{label: lay.labels[ci], val: datagraph.Null()}
		if !row.Nulls[ci] {
			val, err := Coerce(col.Type, row.Cells[ci])
			if err != nil {
				return fail(fmt.Errorf("column %q: %w", col.Name, err))
			}
			out.val = datagraph.V(val)
		} else if !col.Nullable {
			return fail(fmt.Errorf("%w: NULL in non-nullable column %q", ErrCoerce, col.Name))
		}
		c.cells = append(c.cells, out)
	}
	m.cells, m.refs = c.cells[c0:len(c.cells):len(c.cells)], c.refs[r0:len(c.refs):len(c.refs)]
	return nil
}
