// Package ingest is the relational bulk-ingestion subsystem: a streaming
// direct mapping from relational sources (CSV files, SQLite database
// files) into datagraph.Graph, per the complete direct mapping of Boudaoud
// et al. adapted to the data-graph model of Francis & Libkin (where a node
// carries one value, so record fields are pushed out to cell nodes — the
// paper's Section 1 abstraction of property graphs).
//
// The mapping, for a table T with primary key k:
//
//   - row r with key k → the row node (T:k, k);
//   - non-key column c with value v → the cell node (T:k:c, v) and the
//     property edge T:k -[T#c]-> T:k:c; a SQL NULL cell keeps the edge but
//     gives the cell node the shared null value (all nulls intern to one
//     value id in the frozen snapshot);
//   - foreign-key column c referencing S(pk) with value v → the reference
//     edge T:k -[label]-> S:v (no cell node); a NULL foreign key emits
//     nothing.
//
// Rows stream through a parse → map → write pipeline (see Loader) whose
// writer collects dense node and edge arrays and builds the graph once,
// with datagraph.Build. internal/relational cross-validates the mapping
// against its M_rel encoding of Proposition 1.
package ingest

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Type is a column's abstract type: the target of the declared-type
// mapping table and the domain of cell coercion. Every type canonicalizes
// its values to one string rendering, so the same logical dataset produces
// byte-for-byte identical graphs whether it arrives as CSV text or typed
// SQLite records.
type Type int

const (
	// TypeText passes cell text through unchanged.
	TypeText Type = iota
	// TypeInt accepts decimal integers; canonical form strconv.FormatInt.
	TypeInt
	// TypeFloat accepts decimal floats; canonical form %g.
	TypeFloat
	// TypeBool accepts true/false/t/f/1/0 (case-insensitive); canonical
	// form "true"/"false".
	TypeBool
	// TypeDate accepts YYYY-MM-DD; canonical form the same.
	TypeDate
)

var typeNames = [...]string{"text", "int", "float", "bool", "date"}

func (t Type) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return fmt.Sprintf("Type(%d)", int(t))
}

// ParseType resolves a schema-file type name.
func ParseType(s string) (Type, error) {
	for i, n := range typeNames {
		if s == n {
			return Type(i), nil
		}
	}
	return 0, fmt.Errorf("%w: unknown column type %q (want text, int, float, bool or date)", ErrBadSchema, s)
}

// declaredTypes is the type-mapping table from declared SQL type names to
// ingest types, in the spirit of rdbms_graph_rag's SchemaMapper: the
// SQLite storage classes plus the common Postgres/MySQL declarations.
// Lookup is by the first word of the declaration, lowercased, with any
// "(n)" size suffix stripped, so "VARCHAR(255)" resolves via "varchar".
var declaredTypes = map[string]Type{
	"int": TypeInt, "integer": TypeInt, "bigint": TypeInt,
	"smallint": TypeInt, "tinyint": TypeInt, "mediumint": TypeInt,
	"serial": TypeInt, "bigserial": TypeInt,
	"real": TypeFloat, "float": TypeFloat, "double": TypeFloat,
	"numeric": TypeFloat, "decimal": TypeFloat,
	"text": TypeText, "varchar": TypeText, "char": TypeText,
	"clob": TypeText, "blob": TypeText, "json": TypeText,
	"bool": TypeBool, "boolean": TypeBool,
	"date":     TypeDate,
	"datetime": TypeText, "timestamp": TypeText, "timestamptz": TypeText,
}

// MapDeclaredType resolves a declared SQL type ("VARCHAR(255)", "BIGINT")
// through the type-mapping table. Unknown declarations map to TypeText,
// SQLite's own affinity fallback.
func MapDeclaredType(decl string) Type {
	decl = strings.ToLower(strings.TrimSpace(decl))
	if i := strings.IndexAny(decl, " ("); i >= 0 {
		decl = decl[:i]
	}
	if t, ok := declaredTypes[decl]; ok {
		return t
	}
	return TypeText
}

// Coerce validates raw against the type and returns its canonical
// rendering; failures wrap ErrCoerce.
func Coerce(t Type, raw string) (string, error) {
	switch t {
	case TypeText:
		return raw, nil
	case TypeInt:
		n, err := strconv.ParseInt(strings.TrimSpace(raw), 10, 64)
		if err != nil {
			return "", fmt.Errorf("%w: %q is not an int", ErrCoerce, raw)
		}
		var buf [24]byte
		return canonical(raw, strconv.AppendInt(buf[:0], n, 10)), nil
	case TypeFloat:
		f, err := strconv.ParseFloat(strings.TrimSpace(raw), 64)
		if err != nil {
			return "", fmt.Errorf("%w: %q is not a float", ErrCoerce, raw)
		}
		var buf [32]byte
		return canonical(raw, strconv.AppendFloat(buf[:0], f, 'g', -1, 64)), nil
	case TypeBool:
		switch strings.ToLower(strings.TrimSpace(raw)) {
		case "true", "t", "1":
			return "true", nil
		case "false", "f", "0":
			return "false", nil
		}
		return "", fmt.Errorf("%w: %q is not a bool", ErrCoerce, raw)
	case TypeDate:
		d, err := time.Parse("2006-01-02", strings.TrimSpace(raw))
		if err != nil {
			return "", fmt.Errorf("%w: %q is not a YYYY-MM-DD date", ErrCoerce, raw)
		}
		var buf [16]byte
		return canonical(raw, d.AppendFormat(buf[:0], "2006-01-02")), nil
	}
	return "", fmt.Errorf("%w: unknown type %v", ErrCoerce, t)
}

// canonical returns raw when it already is the canonical rendering c, and
// a copy of c otherwise, so a cell in canonical form costs no allocation.
func canonical(raw string, c []byte) string {
	if string(c) == raw {
		return raw
	}
	return string(c)
}

// Column is one relational column.
type Column struct {
	Name     string
	Type     Type
	Nullable bool
	PK       bool
}

// ForeignKey declares that a column's values reference another table's
// primary key, and names the edge label its reference edges carry.
type ForeignKey struct {
	Column    string
	RefTable  string
	RefColumn string
	// Label is the edge label of the reference edges; empty means the
	// default "<table>#<column-with-_id-stripped>".
	Label string
}

// Table is one relational table: columns in declaration order, at most one
// primary-key column, foreign keys.
type Table struct {
	Name string
	// File optionally names the table's CSV source, relative to the schema
	// file's directory.
	File    string
	Columns []Column
	FKs     []ForeignKey
}

// Schema is the relational schema of one dataset.
type Schema struct {
	Tables []Table
}

// Table resolves a table by name.
func (s *Schema) Table(name string) (*Table, bool) {
	for i := range s.Tables {
		if s.Tables[i].Name == name {
			return &s.Tables[i], true
		}
	}
	return nil, false
}

// Column resolves a column index by name.
func (t *Table) Column(name string) (int, bool) {
	for i := range t.Columns {
		if t.Columns[i].Name == name {
			return i, true
		}
	}
	return 0, false
}

// PKIndex returns the index of the primary-key column, or -1 when the
// table has none (rows are then keyed by their ordinal number).
func (t *Table) PKIndex() int {
	for i := range t.Columns {
		if t.Columns[i].PK {
			return i
		}
	}
	return -1
}

// fk resolves the foreign key declared on a column, if any.
func (t *Table) fk(col string) (*ForeignKey, bool) {
	for i := range t.FKs {
		if t.FKs[i].Column == col {
			return &t.FKs[i], true
		}
	}
	return nil, false
}

// EdgeLabel returns the property-edge label of a column: "<table>#<col>",
// the data-graph rendering of the direct mapping's table-qualified
// property IRIs.
func (t *Table) EdgeLabel(col string) string { return t.Name + "#" + col }

// RefLabel returns the reference-edge label of a foreign key: its declared
// label, or "<table>#<column>" with a trailing "_id" stripped.
func (t *Table) RefLabel(fk *ForeignKey) string {
	if fk.Label != "" {
		return fk.Label
	}
	return t.Name + "#" + strings.TrimSuffix(fk.Column, "_id")
}

// Labels returns every edge label the table's direct mapping can emit,
// sorted — the alphabet downstream mappings draw their source queries
// from.
func (s *Schema) Labels() []string {
	set := make(map[string]struct{})
	for i := range s.Tables {
		t := &s.Tables[i]
		for _, c := range t.Columns {
			if c.PK {
				continue
			}
			if fk, ok := t.fk(c.Name); ok {
				set[t.RefLabel(fk)] = struct{}{}
				continue
			}
			set[t.EdgeLabel(c.Name)] = struct{}{}
		}
	}
	out := make([]string, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// Validate checks schema consistency: nonempty, unique table and column
// names, label-safe identifiers, at most one PK per table (non-nullable),
// and foreign keys that reference existing tables on their primary key.
func (s *Schema) Validate() error {
	if len(s.Tables) == 0 {
		return fmt.Errorf("%w: no tables", ErrBadSchema)
	}
	seenT := make(map[string]struct{})
	for i := range s.Tables {
		t := &s.Tables[i]
		if err := validIdent(t.Name); err != nil {
			return err
		}
		if _, dup := seenT[t.Name]; dup {
			return fmt.Errorf("%w: duplicate table %q", ErrBadSchema, t.Name)
		}
		seenT[t.Name] = struct{}{}
		if len(t.Columns) == 0 {
			return fmt.Errorf("%w: table %q has no columns", ErrBadSchema, t.Name)
		}
		seenC := make(map[string]struct{})
		pks := 0
		for _, c := range t.Columns {
			if err := validIdent(c.Name); err != nil {
				return fmt.Errorf("table %q: %w", t.Name, err)
			}
			if _, dup := seenC[c.Name]; dup {
				return fmt.Errorf("%w: table %q: duplicate column %q", ErrBadSchema, t.Name, c.Name)
			}
			seenC[c.Name] = struct{}{}
			if c.PK {
				pks++
				if c.Nullable {
					return fmt.Errorf("%w: table %q: primary key %q is nullable", ErrBadSchema, t.Name, c.Name)
				}
			}
		}
		if pks > 1 {
			return fmt.Errorf("%w: table %q has %d primary-key columns (want at most one)", ErrBadSchema, t.Name, pks)
		}
	}
	for i := range s.Tables {
		t := &s.Tables[i]
		for j := range t.FKs {
			fk := &t.FKs[j]
			if _, ok := t.Column(fk.Column); !ok {
				return fmt.Errorf("%w: table %q: foreign key on unknown column %q", ErrBadSchema, t.Name, fk.Column)
			}
			ref, ok := s.Table(fk.RefTable)
			if !ok {
				return fmt.Errorf("%w: table %q: foreign key %q references unknown table %q",
					ErrBadSchema, t.Name, fk.Column, fk.RefTable)
			}
			pki := ref.PKIndex()
			if pki < 0 || ref.Columns[pki].Name != fk.RefColumn {
				return fmt.Errorf("%w: table %q: foreign key %q must reference %q's primary key, not %q",
					ErrBadSchema, t.Name, fk.Column, fk.RefTable, fk.RefColumn)
			}
			if fk.Label != "" {
				if err := validIdent(fk.Label); err != nil {
					return fmt.Errorf("table %q fk %q label: %w", t.Name, fk.Column, err)
				}
			}
		}
	}
	return nil
}

// validIdent bounds schema identifiers to characters that survive both the
// graph text format (whitespace-delimited) and the query-language label
// alphabet (letters, digits, '_', '-').
func validIdent(s string) error {
	if s == "" {
		return fmt.Errorf("%w: empty identifier", ErrBadSchema)
	}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-':
		default:
			return fmt.Errorf("%w: identifier %q: character %q (want [A-Za-z0-9_-])", ErrBadSchema, s, r)
		}
	}
	return nil
}

// String renders the schema in the text format ParseSchema accepts.
func (s *Schema) String() string {
	var b strings.Builder
	for i := range s.Tables {
		t := &s.Tables[i]
		if t.File != "" {
			fmt.Fprintf(&b, "table %s file=%s\n", t.Name, t.File)
		} else {
			fmt.Fprintf(&b, "table %s\n", t.Name)
		}
		for _, c := range t.Columns {
			fmt.Fprintf(&b, "col %s %s %s", t.Name, c.Name, c.Type)
			if c.PK {
				b.WriteString(" pk")
			}
			if c.Nullable {
				b.WriteString(" null")
			}
			b.WriteByte('\n')
		}
		for j := range t.FKs {
			fk := &t.FKs[j]
			fmt.Fprintf(&b, "fk %s %s %s.%s", t.Name, fk.Column, fk.RefTable, fk.RefColumn)
			if fk.Label != "" {
				fmt.Fprintf(&b, " label=%s", fk.Label)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// ParseSchema reads the line-based schema format:
//
//	# comment
//	table <name> [file=<path>]
//	col <table> <name> <type> [pk] [null]
//	fk <table> <column> <reftable>.<refcol> [label=<label>]
//
// Fields are whitespace-separated; blank lines and '#' comments are
// ignored. Directives may appear in any order as long as a table is
// declared before its columns and keys. The parsed schema is validated.
func ParseSchema(text string) (*Schema, error) {
	s := &Schema{}
	for lineNo, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		bad := func(format string, args ...any) error {
			return fmt.Errorf("%w: line %d: %s", ErrBadSchema, lineNo+1, fmt.Sprintf(format, args...))
		}
		switch f[0] {
		case "table":
			if len(f) < 2 || len(f) > 3 {
				return nil, bad("want 'table <name> [file=<path>]'")
			}
			t := Table{Name: f[1]}
			if len(f) == 3 {
				v, ok := strings.CutPrefix(f[2], "file=")
				if !ok {
					return nil, bad("unknown attribute %q (want file=<path>)", f[2])
				}
				t.File = v
			}
			s.Tables = append(s.Tables, t)
		case "col":
			if len(f) < 4 {
				return nil, bad("want 'col <table> <name> <type> [pk] [null]'")
			}
			t, ok := s.Table(f[1])
			if !ok {
				return nil, bad("column for undeclared table %q", f[1])
			}
			typ, err := ParseType(f[3])
			if err != nil {
				return nil, bad("%v", err)
			}
			c := Column{Name: f[2], Type: typ}
			for _, attr := range f[4:] {
				switch attr {
				case "pk":
					c.PK = true
				case "null":
					c.Nullable = true
				default:
					return nil, bad("unknown column attribute %q (want pk or null)", attr)
				}
			}
			t.Columns = append(t.Columns, c)
		case "fk":
			if len(f) < 4 || len(f) > 5 {
				return nil, bad("want 'fk <table> <column> <reftable>.<refcol> [label=<label>]'")
			}
			t, ok := s.Table(f[1])
			if !ok {
				return nil, bad("foreign key for undeclared table %q", f[1])
			}
			refT, refC, ok := strings.Cut(f[3], ".")
			if !ok {
				return nil, bad("reference %q: want <reftable>.<refcol>", f[3])
			}
			fk := ForeignKey{Column: f[2], RefTable: refT, RefColumn: refC}
			if len(f) == 5 {
				v, ok := strings.CutPrefix(f[4], "label=")
				if !ok {
					return nil, bad("unknown attribute %q (want label=<label>)", f[4])
				}
				fk.Label = v
			}
			t.FKs = append(t.FKs, fk)
		default:
			return nil, bad("unknown directive %q (want table, col or fk)", f[0])
		}
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// InferTable derives a table schema from a CSV header plus sampled rows:
// column types from the narrowest type every sampled value coerces to
// (int ⊂ float, bool, date, else text), nullability from observed empty
// cells, the primary key from the conventional id column ("id" or
// "<table>_id") when its sampled values are unique and non-null, and
// foreign keys from "<reftable>_id" naming against the other table names.
// Sampling is a heuristic: feed it enough rows to be representative, and
// correct the printed schema by hand where it guesses wrong.
func InferTable(name string, header []string, sample [][]string, otherTables []string) (Table, error) {
	if err := validIdent(name); err != nil {
		return Table{}, err
	}
	if len(header) == 0 {
		return Table{}, fmt.Errorf("%w: table %q: empty header", ErrBadSchema, name)
	}
	t := Table{Name: name}
	for ci, col := range header {
		c := Column{Name: col, Type: inferType(sample, ci)}
		for _, row := range sample {
			if ci < len(row) && row[ci] == "" {
				c.Nullable = true
			}
		}
		t.Columns = append(t.Columns, c)
	}
	// Primary key by convention, confirmed against the sample.
	for i := range t.Columns {
		n := t.Columns[i].Name
		if (n == "id" || n == name+"_id") && !t.Columns[i].Nullable && sampleUnique(sample, i) {
			t.Columns[i].PK = true
			break
		}
	}
	// Foreign keys by the "<reftable>_id" convention (also matching a
	// trailing-s plural table name, e.g. order_id → orders).
	for i := range t.Columns {
		if t.Columns[i].PK {
			continue
		}
		base, ok := strings.CutSuffix(t.Columns[i].Name, "_id")
		if !ok {
			continue
		}
		for _, other := range otherTables {
			if other == name {
				continue
			}
			if other == base || other == base+"s" {
				t.FKs = append(t.FKs, ForeignKey{Column: t.Columns[i].Name, RefTable: other, RefColumn: "id"})
				break
			}
		}
	}
	return t, nil
}

// inferType picks the narrowest type all sampled non-empty values of a
// column coerce to.
func inferType(sample [][]string, col int) Type {
	candidates := []Type{TypeInt, TypeFloat, TypeBool, TypeDate}
	seen := false
	for _, row := range sample {
		if col >= len(row) || row[col] == "" {
			continue
		}
		seen = true
		kept := candidates[:0]
		for _, t := range candidates {
			if _, err := Coerce(t, row[col]); err == nil {
				kept = append(kept, t)
			}
		}
		candidates = kept
		if len(candidates) == 0 {
			return TypeText
		}
	}
	if !seen || len(candidates) == 0 {
		return TypeText
	}
	return candidates[0]
}

// sampleUnique reports whether a column's sampled values are distinct and
// non-empty.
func sampleUnique(sample [][]string, col int) bool {
	seen := make(map[string]struct{}, len(sample))
	for _, row := range sample {
		if col >= len(row) || row[col] == "" {
			return false
		}
		if _, dup := seen[row[col]]; dup {
			return false
		}
		seen[row[col]] = struct{}{}
	}
	return true
}
