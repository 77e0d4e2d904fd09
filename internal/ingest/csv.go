package ingest

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// Row is one relational row as delivered by a RowReader: raw cell text
// aligned to the table's declared column order, with SQL NULLs flagged
// separately (CSV renders NULL as the empty cell; SQLite records carry an
// explicit null serial type). Coercion to canonical form happens in the
// mapping stage, against the declared column types.
//
// A returned row's Cells and Nulls are read-only, and they stay valid
// after later Next calls: readers cut them from blocks they never reuse
// (see rowSlab).
type Row struct {
	// Num is the 1-based data row number within the source (header
	// excluded), the coordinate reported in row errors.
	Num   int
	Cells []string
	Nulls []bool
}

// rowSlab cuts rows' Cells and Nulls from blocks of chunkRows rows, one
// make of each per block. A block is never reused, because the map stage
// still reads a chunk's rows while parsing runs ahead.
type rowSlab struct {
	cells []string
	nulls []bool
}

// next returns row num with width cells, all empty and none NULL.
func (s *rowSlab) next(num, width int) Row {
	if len(s.cells) < width {
		s.cells, s.nulls = make([]string, chunkRows*width), make([]bool, chunkRows*width)
	}
	row := Row{Num: num, Cells: s.cells[:width:width], Nulls: s.nulls[:width:width]}
	s.cells, s.nulls = s.cells[width:], s.nulls[width:]
	return row
}

// RowReader streams one table's rows. Next returns io.EOF at end of input
// and *RowError for row-scoped failures the caller may elect to skip
// (ragged width, broken quoting); any other error is fatal.
type RowReader interface {
	Next() (Row, error)
	Close() error
}

// Source supplies one table's rows. Open receives the resolved table
// schema so readers can align file columns to declared columns.
type Source struct {
	Table string
	Open  func(t *Table) (RowReader, error)
}

// CSVFile returns a Source reading the table from a CSV file on disk.
// The first record is the header.
func CSVFile(table, path string) Source {
	return Source{Table: table, Open: func(t *Table) (RowReader, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("ingest: table %s: %w", table, err)
		}
		r, err := newCSVReader(t, f)
		if err != nil {
			f.Close()
			return nil, err
		}
		r.closer = f
		return r, nil
	}}
}

// CSVString returns a Source reading the table from in-memory CSV text;
// the fixture-building counterpart of CSVFile.
func CSVString(table, text string) Source {
	return Source{Table: table, Open: func(t *Table) (RowReader, error) {
		return newCSVReader(t, strings.NewReader(text))
	}}
}

// csvReader adapts encoding/csv to the RowReader contract: it maps header
// columns onto the table's declared columns, renders empty cells as NULL,
// and wraps parse failures as row-scoped errors.
type csvReader struct {
	table  *Table
	r      *csv.Reader
	perm   []int // declared column index -> file column index
	row    int
	slab   rowSlab
	closer io.Closer
}

func newCSVReader(t *Table, src io.Reader) (*csvReader, error) {
	r := csv.NewReader(src)
	r.FieldsPerRecord = -1 // ragged rows are diagnosed per row, not fatally
	r.ReuseRecord = true
	header, err := r.Read()
	if err != nil {
		if err == io.EOF {
			return nil, fmt.Errorf("%w: table %s: empty input", ErrBadHeader, t.Name)
		}
		return nil, fmt.Errorf("%w: table %s: %v", ErrBadHeader, t.Name, err)
	}
	perm := make([]int, len(t.Columns))
	for ci := range t.Columns {
		perm[ci] = -1
		for fi, h := range header {
			if strings.TrimSpace(h) == t.Columns[ci].Name {
				perm[ci] = fi
				break
			}
		}
		if perm[ci] < 0 {
			return nil, fmt.Errorf("%w: table %s: header %v is missing declared column %q",
				ErrBadHeader, t.Name, header, t.Columns[ci].Name)
		}
	}
	return &csvReader{table: t, r: r, perm: perm}, nil
}

func (c *csvReader) Next() (Row, error) {
	rec, err := c.r.Read()
	if err != nil {
		if err == io.EOF {
			return Row{}, io.EOF
		}
		// encoding/csv resynchronizes at the next record after a parse
		// error, so quoting failures are skippable row errors.
		c.row++
		var pe *csv.ParseError
		if errors.As(err, &pe) {
			return Row{}, rowErr(c.table.Name, c.row, fmt.Errorf("%w: %v", ErrBadRow, pe.Err))
		}
		return Row{}, rowErr(c.table.Name, c.row, fmt.Errorf("%w: %v", ErrBadRow, err))
	}
	c.row++
	row := c.slab.next(c.row, len(c.perm))
	for ci, fi := range c.perm {
		if fi >= len(rec) {
			return Row{}, rowErr(c.table.Name, c.row,
				fmt.Errorf("%w: %d fields, want at least %d", ErrBadRow, len(rec), fi+1))
		}
		cell := rec[fi]
		if cell == "" {
			row.Nulls[ci] = true
			continue
		}
		row.Cells[ci] = cell
	}
	return row, nil
}

func (c *csvReader) Close() error {
	if c.closer != nil {
		return c.closer.Close()
	}
	return nil
}

// Rows returns a Source over already-materialized rows (cells aligned to
// declared columns, empty string = NULL unless flagged); the programmatic
// entry point internal/relational's fixture bridge uses.
func Rows(table string, rows [][]string) Source {
	return Source{Table: table, Open: func(t *Table) (RowReader, error) {
		return &sliceReader{table: t, rows: rows}, nil
	}}
}

type sliceReader struct {
	table *Table
	rows  [][]string
	i     int
	slab  rowSlab
}

func (s *sliceReader) Next() (Row, error) {
	if s.i >= len(s.rows) {
		return Row{}, io.EOF
	}
	rec := s.rows[s.i]
	s.i++
	if len(rec) != len(s.table.Columns) {
		return Row{}, rowErr(s.table.Name, s.i,
			fmt.Errorf("%w: %d fields, want %d", ErrBadRow, len(rec), len(s.table.Columns)))
	}
	row := s.slab.next(s.i, len(rec))
	for ci, cell := range rec {
		if cell == "" {
			row.Nulls[ci] = true
			continue
		}
		row.Cells[ci] = cell
	}
	return row, nil
}

func (s *sliceReader) Close() error { return nil }
