package ingest

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// A driver-less SQLite reader. The toolchain has no cgo SQLite driver and
// the no-new-dependencies rule forbids pulling one in, so ingestion reads
// the database file format directly: the 100-byte header, the
// sqlite_master catalog, table b-trees (interior + leaf pages, overflow
// chains), and the record format with its serial types. Only the subset
// bulk ingestion needs is implemented — read-only table scans in rowid
// order — which is also the subset our fixture writer (sqlitegen.go)
// emits. WAL-mode databases with unmerged frames are rejected.

const sqliteMagic = "SQLite format 3\x00"

// SQLiteDB is an opened database file, held in memory.
type SQLiteDB struct {
	data     []byte
	pageSize int
	usable   int // pageSize minus the per-page reserved region
	master   []masterRow
}

type masterRow struct {
	name     string
	rootpage int
	sql      string
}

// OpenSQLite reads and parses the database file's catalog.
func OpenSQLite(path string) (*SQLiteDB, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	db, err := ParseSQLite(data)
	if err != nil {
		return nil, fmt.Errorf("ingest: %s: %w", path, err)
	}
	return db, nil
}

// ParseSQLite parses an in-memory database image.
func ParseSQLite(data []byte) (*SQLiteDB, error) {
	if len(data) < 100 || string(data[:16]) != sqliteMagic {
		return nil, fmt.Errorf("not a SQLite 3 database")
	}
	ps := int(binary.BigEndian.Uint16(data[16:18]))
	if ps == 1 {
		ps = 65536
	}
	if ps < 512 || ps&(ps-1) != 0 {
		return nil, fmt.Errorf("bad page size %d", ps)
	}
	if enc := binary.BigEndian.Uint32(data[56:60]); enc != 1 && enc != 0 {
		return nil, fmt.Errorf("unsupported text encoding %d (want UTF-8)", enc)
	}
	if data[18] > 1 || data[19] > 1 {
		return nil, fmt.Errorf("WAL-mode database (run PRAGMA journal_mode=DELETE and retry)")
	}
	db := &SQLiteDB{data: data, pageSize: ps, usable: ps - int(data[20])}
	// sqlite_master roots at page 1; its rows are
	// (type, name, tbl_name, rootpage, sql).
	it, err := db.iter(1)
	if err != nil {
		return nil, err
	}
	for {
		_, vals, nulls, err := it.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if len(vals) < 5 || nulls[0] || vals[0] != "table" || nulls[1] || nulls[3] || nulls[4] {
			continue
		}
		root, err := strconv.Atoi(vals[3])
		if err != nil {
			return nil, fmt.Errorf("sqlite_master: bad rootpage %q", vals[3])
		}
		db.master = append(db.master, masterRow{name: vals[1], rootpage: root, sql: vals[4]})
	}
	return db, nil
}

// Tables lists the catalog's table names in catalog order.
func (db *SQLiteDB) Tables() []string {
	out := make([]string, len(db.master))
	for i, m := range db.master {
		out[i] = m.name
	}
	return out
}

// Schema derives an ingest schema from the catalog's CREATE TABLE
// statements, through the declared-type mapping table.
func (db *SQLiteDB) Schema() (*Schema, error) {
	s := &Schema{}
	for _, m := range db.master {
		t, err := parseCreateTable(m.sql)
		if err != nil {
			return nil, fmt.Errorf("table %s: %w", m.name, err)
		}
		t.Name = m.name
		s.Tables = append(s.Tables, t)
	}
	// Second pass: REFERENCES t — with no column — means t's primary key.
	for i := range s.Tables {
		for j := range s.Tables[i].FKs {
			fk := &s.Tables[i].FKs[j]
			if fk.RefColumn != "" {
				continue
			}
			ref, ok := s.Table(fk.RefTable)
			if !ok {
				return nil, fmt.Errorf("%w: table %q: foreign key %q references unknown table %q",
					ErrBadSchema, s.Tables[i].Name, fk.Column, fk.RefTable)
			}
			pki := ref.PKIndex()
			if pki < 0 {
				return nil, fmt.Errorf("%w: table %q: foreign key %q references %q, which has no primary key",
					ErrBadSchema, s.Tables[i].Name, fk.Column, fk.RefTable)
			}
			fk.RefColumn = ref.Columns[pki].Name
		}
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Sources returns one Source per catalog table.
func (db *SQLiteDB) Sources() []Source {
	out := make([]Source, len(db.master))
	for i, m := range db.master {
		out[i] = db.Source(m.name)
	}
	return out
}

// Source returns the Source for one table.
func (db *SQLiteDB) Source(table string) Source {
	return Source{Table: table, Open: func(t *Table) (RowReader, error) {
		var m *masterRow
		for i := range db.master {
			if db.master[i].name == table {
				m = &db.master[i]
				break
			}
		}
		if m == nil {
			return nil, fmt.Errorf("%w: database has no table %q", ErrBadSchema, table)
		}
		ddl, err := parseCreateTable(m.sql)
		if err != nil {
			return nil, err
		}
		// Map the stored record layout (DDL column order) onto the
		// declared table's columns, like the CSV header permutation.
		perm := make([]int, len(t.Columns))
		for ci := range t.Columns {
			perm[ci] = -1
			for fi := range ddl.Columns {
				if ddl.Columns[fi].Name == t.Columns[ci].Name {
					perm[ci] = fi
					break
				}
			}
			if perm[ci] < 0 {
				return nil, fmt.Errorf("%w: table %s has no stored column %q",
					ErrBadHeader, table, t.Columns[ci].Name)
			}
		}
		// An INTEGER PRIMARY KEY column aliases the rowid: SQLite stores
		// NULL in the record and the real value in the cell key.
		alias := -1
		if pki := ddl.PKIndex(); pki >= 0 && ddl.Columns[pki].Type == TypeInt {
			alias = pki
		}
		it, err := db.iter(m.rootpage)
		if err != nil {
			return nil, err
		}
		return &sqliteReader{table: t, it: it, perm: perm, rowidAlias: alias}, nil
	}}
}

// sqliteReader adapts a b-tree scan to the RowReader contract.
type sqliteReader struct {
	table      *Table
	it         *btreeIter
	perm       []int
	rowidAlias int
	row        int
	slab       rowSlab
}

func (r *sqliteReader) Next() (Row, error) {
	rowid, vals, nulls, err := r.it.next()
	if err == io.EOF {
		return Row{}, io.EOF
	}
	r.row++
	if err != nil {
		return Row{}, rowErr(r.table.Name, r.row, fmt.Errorf("%w: %v", ErrBadRow, err))
	}
	row := r.slab.next(r.row, len(r.perm))
	for ci, fi := range r.perm {
		switch {
		case fi == r.rowidAlias && (fi >= len(vals) || nulls[fi]):
			row.Cells[ci] = strconv.FormatInt(rowid, 10)
		case fi >= len(vals) || nulls[fi]:
			row.Nulls[ci] = true
		default:
			row.Cells[ci] = vals[fi]
		}
	}
	return row, nil
}

func (r *sqliteReader) Close() error { return nil }

// --- b-tree iteration ---

// btreeIter walks a table b-tree depth-first, yielding leaf cells in
// rowid order.
type btreeIter struct {
	db    *SQLiteDB
	stack []frame
}

type frame struct {
	page int
	cell int // next cell index; for interior pages, len(cells) means the right-most pointer
}

func (db *SQLiteDB) iter(root int) (*btreeIter, error) {
	if root < 1 || root*db.pageSize > len(db.data) {
		return nil, fmt.Errorf("rootpage %d out of range", root)
	}
	return &btreeIter{db: db, stack: []frame{{page: root}}}, nil
}

// page returns a page's bytes and the offset of its b-tree header (page 1
// carries the 100-byte file header first).
func (db *SQLiteDB) page(n int) ([]byte, int, error) {
	off := (n - 1) * db.pageSize
	if n < 1 || off+db.pageSize > len(db.data) {
		return nil, 0, fmt.Errorf("page %d out of range", n)
	}
	p := db.data[off : off+db.pageSize]
	if n == 1 {
		return p, 100, nil
	}
	return p, 0, nil
}

// next yields the next leaf cell: rowid plus the decoded record.
func (it *btreeIter) next() (int64, []string, []bool, error) {
	for len(it.stack) > 0 {
		f := &it.stack[len(it.stack)-1]
		p, hdr, err := it.db.page(f.page)
		if err != nil {
			return 0, nil, nil, err
		}
		typ := p[hdr]
		ncells := int(binary.BigEndian.Uint16(p[hdr+3 : hdr+5]))
		switch typ {
		case 13: // table leaf
			if f.cell >= ncells {
				it.stack = it.stack[:len(it.stack)-1]
				continue
			}
			off := int(binary.BigEndian.Uint16(p[hdr+8+2*f.cell:]))
			f.cell++
			return it.db.leafCell(p, off)
		case 5: // table interior
			var child int
			switch {
			case f.cell < ncells:
				off := int(binary.BigEndian.Uint16(p[hdr+12+2*f.cell:]))
				if off+4 > len(p) {
					return 0, nil, nil, fmt.Errorf("page %d: cell offset out of range", f.page)
				}
				child = int(binary.BigEndian.Uint32(p[off:]))
			case f.cell == ncells:
				child = int(binary.BigEndian.Uint32(p[hdr+8:]))
			default:
				it.stack = it.stack[:len(it.stack)-1]
				continue
			}
			f.cell++
			it.stack = append(it.stack, frame{page: child})
		default:
			return 0, nil, nil, fmt.Errorf("page %d: unexpected b-tree page type %d", f.page, typ)
		}
	}
	return 0, nil, nil, io.EOF
}

// leafCell decodes one table-leaf cell at off: payload length, rowid, and
// the (possibly overflowing) record payload.
func (db *SQLiteDB) leafCell(p []byte, off int) (int64, []string, []bool, error) {
	if off >= len(p) {
		return 0, nil, nil, fmt.Errorf("cell offset %d out of range", off)
	}
	plen, n := varint(p[off:])
	if n == 0 {
		return 0, nil, nil, fmt.Errorf("bad payload length varint")
	}
	off += n
	rowid, n := varint(p[off:])
	if n == 0 {
		return 0, nil, nil, fmt.Errorf("bad rowid varint")
	}
	off += n

	payload, err := db.assemblePayload(p, off, int(plen))
	if err != nil {
		return 0, nil, nil, err
	}
	vals, nulls, err := decodeRecord(payload)
	if err != nil {
		return 0, nil, nil, err
	}
	return rowid, vals, nulls, nil
}

// assemblePayload gathers a cell payload, following the overflow chain
// when the record spills past the leaf-local threshold.
func (db *SQLiteDB) assemblePayload(p []byte, off, plen int) ([]byte, error) {
	u := db.usable
	maxLocal := u - 35
	if plen <= maxLocal {
		if off+plen > len(p) {
			return nil, fmt.Errorf("payload out of page bounds")
		}
		return p[off : off+plen], nil
	}
	minLocal := (u-12)*32/255 - 23
	local := minLocal + (plen-minLocal)%(u-4)
	if local > maxLocal {
		local = minLocal
	}
	if off+local+4 > len(p) {
		return nil, fmt.Errorf("overflowing payload out of page bounds")
	}
	buf := make([]byte, 0, plen)
	buf = append(buf, p[off:off+local]...)
	next := int(binary.BigEndian.Uint32(p[off+local:]))
	for len(buf) < plen {
		if next == 0 {
			return nil, fmt.Errorf("overflow chain ends short: %d of %d bytes", len(buf), plen)
		}
		op, _, err := db.page(next)
		if err != nil {
			return nil, err
		}
		next = int(binary.BigEndian.Uint32(op))
		take := plen - len(buf)
		if take > u-4 {
			take = u - 4
		}
		buf = append(buf, op[4:4+take]...)
	}
	return buf, nil
}

// decodeRecord decodes the record format: a header of serial types
// followed by the value bodies. Values render to the textual form Coerce
// later canonicalizes; blobs pass through as raw bytes.
func decodeRecord(rec []byte) ([]string, []bool, error) {
	hlen, n := varint(rec)
	if n == 0 || int(hlen) > len(rec) || int(hlen) < n {
		return nil, nil, fmt.Errorf("bad record header")
	}
	var serials []int64
	for h := n; h < int(hlen); {
		st, sn := varint(rec[h:])
		if sn == 0 {
			return nil, nil, fmt.Errorf("bad serial type varint")
		}
		serials = append(serials, st)
		h += sn
	}
	vals := make([]string, len(serials))
	nulls := make([]bool, len(serials))
	body := rec[hlen:]
	for i, st := range serials {
		size := serialSize(st)
		if size < 0 {
			return nil, nil, fmt.Errorf("reserved serial type %d", st)
		}
		if size > len(body) {
			return nil, nil, fmt.Errorf("record body too short")
		}
		v := body[:size]
		body = body[size:]
		switch {
		case st == 0:
			nulls[i] = true
		case st >= 1 && st <= 6:
			vals[i] = strconv.FormatInt(twosComplement(v), 10)
		case st == 7:
			f := math.Float64frombits(binary.BigEndian.Uint64(v))
			vals[i] = strconv.FormatFloat(f, 'g', -1, 64)
		case st == 8:
			vals[i] = "0"
		case st == 9:
			vals[i] = "1"
		default: // blob or text: pass bytes through
			vals[i] = string(v)
		}
	}
	return vals, nulls, nil
}

// serialSize returns a serial type's body size in bytes, or -1 for the
// reserved types.
func serialSize(st int64) int {
	switch st {
	case 0, 8, 9:
		return 0
	case 1:
		return 1
	case 2:
		return 2
	case 3:
		return 3
	case 4:
		return 4
	case 5:
		return 6
	case 6, 7:
		return 8
	case 10, 11:
		return -1
	}
	if st >= 12 {
		return int(st-12) / 2
	}
	return -1
}

// twosComplement sign-extends a 1–8 byte big-endian integer.
func twosComplement(b []byte) int64 {
	var v int64
	for _, x := range b {
		v = v<<8 | int64(x)
	}
	shift := 64 - 8*len(b)
	return v << shift >> shift
}

// varint decodes SQLite's big-endian 7-bit varint (up to 9 bytes, the
// ninth contributing a full 8 bits). n == 0 reports truncated input.
func varint(b []byte) (v int64, n int) {
	for i := 0; i < 8 && i < len(b); i++ {
		v = v<<7 | int64(b[i]&0x7f)
		if b[i]&0x80 == 0 {
			return v, i + 1
		}
	}
	if len(b) < 9 {
		return 0, 0
	}
	return v<<8 | int64(b[8]), 9
}

// --- CREATE TABLE parsing ---

// parseCreateTable extracts columns and constraints from a CREATE TABLE
// statement: enough SQL to cover what fixtures and common dumps declare —
// typed columns, PRIMARY KEY / NOT NULL / REFERENCES column constraints,
// and PRIMARY KEY / FOREIGN KEY table constraints. The table name is left
// empty (the catalog's name field is authoritative).
func parseCreateTable(sql string) (Table, error) {
	open := strings.IndexByte(sql, '(')
	close_ := strings.LastIndexByte(sql, ')')
	if open < 0 || close_ <= open {
		return Table{}, fmt.Errorf("%w: unparseable CREATE TABLE %q", ErrBadSchema, sql)
	}
	var t Table
	for _, item := range splitTopLevel(sql[open+1 : close_]) {
		toks := sqlTokens(item)
		if len(toks) == 0 {
			continue
		}
		// Named table constraint: skip "CONSTRAINT <name>".
		if eqFold(toks[0], "CONSTRAINT") && len(toks) > 2 {
			toks = toks[2:]
		}
		switch {
		case eqFold(toks[0], "PRIMARY") && len(toks) > 1 && eqFold(toks[1], "KEY"):
			cols := parenList(toks[2:])
			if len(cols) != 1 {
				return Table{}, fmt.Errorf("%w: composite primary keys are not supported: %q", ErrBadSchema, item)
			}
			if ci, ok := t.Column(cols[0]); ok {
				t.Columns[ci].PK = true
				t.Columns[ci].Nullable = false
			}
		case eqFold(toks[0], "FOREIGN") && len(toks) > 1 && eqFold(toks[1], "KEY"):
			cols := parenList(toks[2:])
			if len(cols) != 1 {
				return Table{}, fmt.Errorf("%w: composite foreign keys are not supported: %q", ErrBadSchema, item)
			}
			fk, err := parseReferences(toks, cols[0])
			if err != nil {
				return Table{}, err
			}
			t.FKs = append(t.FKs, fk)
		case eqFold(toks[0], "UNIQUE") || eqFold(toks[0], "CHECK"):
			// ignored
		default:
			col, fk, err := parseColumnDef(toks)
			if err != nil {
				return Table{}, err
			}
			t.Columns = append(t.Columns, col)
			if fk != nil {
				t.FKs = append(t.FKs, *fk)
			}
		}
	}
	if len(t.Columns) == 0 {
		return Table{}, fmt.Errorf("%w: CREATE TABLE with no columns: %q", ErrBadSchema, sql)
	}
	return t, nil
}

// parseColumnDef parses "name [type...] [constraints...]".
func parseColumnDef(toks []string) (Column, *ForeignKey, error) {
	c := Column{Name: unquoteIdent(toks[0]), Nullable: true}
	var typeToks []string
	i := 1
	for ; i < len(toks); i++ {
		if isConstraintKeyword(toks[i]) {
			break
		}
		typeToks = append(typeToks, toks[i])
	}
	c.Type = MapDeclaredType(strings.Join(typeToks, " "))
	var fk *ForeignKey
	for ; i < len(toks); i++ {
		switch {
		case eqFold(toks[i], "PRIMARY") && i+1 < len(toks) && eqFold(toks[i+1], "KEY"):
			c.PK, c.Nullable = true, false
			i++
		case eqFold(toks[i], "NOT") && i+1 < len(toks) && eqFold(toks[i+1], "NULL"):
			c.Nullable = false
			i++
		case eqFold(toks[i], "REFERENCES"):
			f, err := parseReferences(toks[i:], c.Name)
			if err != nil {
				return c, nil, err
			}
			fk = &f
		}
	}
	return c, fk, nil
}

// parseReferences finds "REFERENCES <table> [(<col>)]" in toks and builds
// the foreign key for the given local column. An omitted column list means
// the referenced table's primary key (resolved in Schema's second pass).
func parseReferences(toks []string, local string) (ForeignKey, error) {
	for i := 0; i < len(toks); i++ {
		if !eqFold(toks[i], "REFERENCES") {
			continue
		}
		if i+1 >= len(toks) {
			return ForeignKey{}, fmt.Errorf("%w: REFERENCES with no table", ErrBadSchema)
		}
		fk := ForeignKey{Column: unquoteIdent(local), RefTable: unquoteIdent(toks[i+1])}
		if cols := parenList(toks[i+2:]); len(cols) == 1 {
			fk.RefColumn = cols[0]
		}
		return fk, nil
	}
	return ForeignKey{}, fmt.Errorf("%w: FOREIGN KEY with no REFERENCES clause", ErrBadSchema)
}

// parenList reads a leading "( ident [, ident...] )" token run.
func parenList(toks []string) []string {
	if len(toks) == 0 || toks[0] != "(" {
		return nil
	}
	var out []string
	for _, tok := range toks[1:] {
		switch tok {
		case ")":
			return out
		case ",":
		default:
			out = append(out, unquoteIdent(tok))
		}
	}
	return nil
}

func isConstraintKeyword(tok string) bool {
	for _, k := range [...]string{"PRIMARY", "NOT", "NULL", "UNIQUE", "DEFAULT", "REFERENCES", "CHECK", "COLLATE", "CONSTRAINT", "GENERATED", "AS"} {
		if eqFold(tok, k) {
			return true
		}
	}
	return false
}

func eqFold(a, b string) bool { return strings.EqualFold(a, b) }

// unquoteIdent strips SQL identifier quoting: "x", `x`, [x], 'x'.
func unquoteIdent(s string) string {
	if len(s) >= 2 {
		switch {
		case s[0] == '"' && s[len(s)-1] == '"',
			s[0] == '`' && s[len(s)-1] == '`',
			s[0] == '\'' && s[len(s)-1] == '\'':
			return s[1 : len(s)-1]
		case s[0] == '[' && s[len(s)-1] == ']':
			return s[1 : len(s)-1]
		}
	}
	return s
}

// sqlTokens splits a DDL fragment into tokens, treating parens and commas
// as standalone tokens and keeping quoted identifiers intact.
func sqlTokens(s string) []string {
	var toks []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			toks = append(toks, cur.String())
			cur.Reset()
		}
	}
	var quote byte
	for i := 0; i < len(s); i++ {
		ch := s[i]
		if quote != 0 {
			cur.WriteByte(ch)
			if ch == quote {
				quote = 0
			}
			continue
		}
		switch ch {
		case '"', '`', '\'':
			cur.WriteByte(ch)
			quote = ch
		case '[':
			cur.WriteByte(ch)
			quote = ']'
		case '(', ')', ',':
			flush()
			toks = append(toks, string(ch))
		case ' ', '\t', '\n', '\r':
			flush()
		default:
			cur.WriteByte(ch)
		}
	}
	flush()
	return toks
}

// splitTopLevel splits a CREATE TABLE body on commas outside parens and
// quotes.
func splitTopLevel(s string) []string {
	var out []string
	depth := 0
	var quote byte
	start := 0
	for i := 0; i < len(s); i++ {
		ch := s[i]
		if quote != 0 {
			if ch == quote {
				quote = 0
			}
			continue
		}
		switch ch {
		case '"', '`', '\'':
			quote = ch
		case '[':
			quote = ']'
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	out = append(out, s[start:])
	return out
}
