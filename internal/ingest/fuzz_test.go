package ingest

import (
	"context"
	"encoding/csv"
	"errors"
	"strings"
	"testing"
)

// FuzzParseCSV loads CSV text for the two-table fixture schema. A load
// must not panic; it fails only with a typed error (a bad header, or a
// row-scoped sentinel); and a load that succeeds builds the graph a Rows
// load of the records encoding/csv parses from the same text builds, so
// the CSV reader's and the Rows reader's slab paths agree.
func FuzzParseCSV(f *testing.F) {
	f.Add(custCSV, ordersCSV)
	f.Add("id,name,city\n1,alice,paris\n2,bob\n3,carol,lyon\n", "id,customer_id,total\n")
	f.Add("id,name,city\n1,\"al\"ice,paris\n2,bob,nice\n", "id,customer_id,total\n")
	f.Add("id,name,city\n1,alice,paris\n", "id,customer_id,total\nten,1,5\n")
	f.Add("id,name,city\n1,alice,paris\n1,alice2,lyon\n", "id,customer_id,total\n")
	f.Add("id,name,city\n,alice,paris\n2,bob,nice\n", "id,customer_id,total\n")
	f.Add("id,name,city\n1,alice,paris\n", "id,customer_id,total\n10,99,5\n")
	f.Add("id,name,city\n1,,paris\n2,bob,nice\n", "id,customer_id,total\n")
	f.Add("id,name\n1,alice\n", "id,customer_id,total\n")
	f.Add("id,name,city\n1,alice,paris\n", "id,customer_id,total\n10,1,5\n11,94,5\n12,92,5\n13,93,5\n14,91,5\n")
	f.Add("city , id,name\n\"lyon, rhône\",01,\"a\"\"b\"\n", "total,id,customer_id\n1e3,+10,1\n")
	s, err := ParseSchema(fixtureSchema)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, cust, orders string) {
		texts := []string{cust, orders}
		srcs := []Source{CSVString("customer", cust), CSVString("orders", orders)}
		g, _, err := Load(context.Background(), s, Options{}, srcs...)
		if err != nil {
			var re *RowError
			if errors.Is(err, ErrBadHeader) || errors.As(err, &re) && (errors.Is(err, ErrBadRow) ||
				errors.Is(err, ErrCoerce) || errors.Is(err, ErrNullPK) || errors.Is(err, ErrDuplicatePK) || errors.Is(err, ErrDanglingFK)) {
				return
			}
			t.Fatalf("load failed with an untyped error: %v", err)
		}
		for i := range srcs {
			rows, err := alignedRecords(&s.Tables[i], texts[i])
			if err != nil {
				t.Fatalf("table %s loaded, but encoding/csv rejects its text: %v", s.Tables[i].Name, err)
			}
			srcs[i] = Rows(s.Tables[i].Name, rows)
		}
		byRows, _, err := Load(context.Background(), s, Options{}, srcs...)
		if err != nil {
			t.Fatalf("the CSV load succeeded, the Rows load of its records failed: %v", err)
		}
		if got, want := g.String(), byRows.String(); got != want {
			t.Fatalf("the CSV load built\n%s\nthe Rows load of its records built\n%s", got, want)
		}
	})
}

// alignedRecords parses CSV text with encoding/csv and aligns each record
// to t's declared columns by the header, as the CSV reader does.
func alignedRecords(t *Table, text string) ([][]string, error) {
	r := csv.NewReader(strings.NewReader(text))
	r.FieldsPerRecord = -1
	recs, err := r.ReadAll()
	if err != nil || len(recs) == 0 {
		return nil, err
	}
	perm := make([]int, len(t.Columns))
	for ci := range t.Columns {
		perm[ci] = -1
		for fi, h := range recs[0] {
			if strings.TrimSpace(h) == t.Columns[ci].Name {
				perm[ci] = fi
				break
			}
		}
	}
	rows := make([][]string, 0, len(recs)-1)
	for _, rec := range recs[1:] {
		row := make([]string, len(perm))
		for ci, fi := range perm {
			row[ci] = rec[fi]
		}
		rows = append(rows, row)
	}
	return rows, nil
}
