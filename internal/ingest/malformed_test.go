package ingest

import (
	"context"
	"errors"
	"testing"
)

// Malformed-input hardening: every corruption maps to a typed sentinel
// with table/row coordinates under the strict policy, and to a counted
// skip under -skip-bad-rows.
func TestMalformedInputs(t *testing.T) {
	cases := []struct {
		name    string
		csv     map[string]string // table -> csv text
		want    error             // sentinel under strict
		wantRow int               // expected row coordinate (0 = don't check)
		// under the lenient policy:
		skipOK       bool  // load succeeds
		skipped      int64 // rows counted as skipped
		droppedFKs   int64
		survivorRows int64
	}{
		{
			name: "ragged row",
			csv: map[string]string{
				"customer": "id,name,city\n1,alice,paris\n2,bob\n3,carol,lyon\n",
				"orders":   "id,customer_id,total\n",
			},
			want: ErrBadRow, wantRow: 2,
			skipOK: true, skipped: 1, survivorRows: 2,
		},
		{
			name: "broken quoting",
			csv: map[string]string{
				"customer": "id,name,city\n1,\"al\"ice,paris\n2,bob,nice\n",
				"orders":   "id,customer_id,total\n",
			},
			want: ErrBadRow, wantRow: 1,
			skipOK: true, skipped: 1, survivorRows: 1,
		},
		{
			name: "type coercion failure",
			csv: map[string]string{
				"customer": "id,name,city\n1,alice,paris\n",
				"orders":   "id,customer_id,total\nten,1,5\n",
			},
			want: ErrCoerce, wantRow: 1,
			skipOK: true, skipped: 1, survivorRows: 1,
		},
		{
			name: "duplicate primary key",
			csv: map[string]string{
				"customer": "id,name,city\n1,alice,paris\n1,alice2,lyon\n",
				"orders":   "id,customer_id,total\n",
			},
			want: ErrDuplicatePK, wantRow: 2,
			skipOK: true, skipped: 1, survivorRows: 1,
		},
		{
			name: "null primary key",
			csv: map[string]string{
				"customer": "id,name,city\n,alice,paris\n2,bob,nice\n",
				"orders":   "id,customer_id,total\n",
			},
			want: ErrNullPK, wantRow: 1,
			skipOK: true, skipped: 1, survivorRows: 1,
		},
		{
			name: "dangling foreign key",
			csv: map[string]string{
				"customer": "id,name,city\n1,alice,paris\n",
				"orders":   "id,customer_id,total\n10,99,5\n",
			},
			want: ErrDanglingFK, wantRow: 1,
			skipOK: true, droppedFKs: 1, survivorRows: 2,
		},
		{
			name: "null in non-nullable column",
			csv: map[string]string{
				"customer": "id,name,city\n1,,paris\n2,bob,nice\n",
				"orders":   "id,customer_id,total\n",
			},
			want: ErrCoerce, wantRow: 1,
			skipOK: true, skipped: 1, survivorRows: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := mustSchema(t, fixtureSchema)
			srcs := []Source{CSVString("customer", tc.csv["customer"]), CSVString("orders", tc.csv["orders"])}

			// Strict policy: the first bad row aborts with its sentinel and
			// coordinates.
			_, _, err := Load(context.Background(), s, Options{}, srcs...)
			if !errors.Is(err, tc.want) {
				t.Fatalf("strict err = %v, want %v", err, tc.want)
			}
			var re *RowError
			if !errors.As(err, &re) {
				t.Fatalf("strict err %v is not row-scoped", err)
			}
			if tc.wantRow != 0 && re.Row != tc.wantRow {
				t.Fatalf("row coordinate = %d, want %d (err %v)", re.Row, tc.wantRow, err)
			}

			// Lenient policy: load completes, skips are counted.
			_, rep, err := Load(context.Background(), s, Options{SkipBadRows: true}, srcs...)
			if (err == nil) != tc.skipOK {
				t.Fatalf("lenient err = %v, want ok=%v", err, tc.skipOK)
			}
			if rep.Skipped != tc.skipped || rep.DroppedFKs != tc.droppedFKs {
				t.Fatalf("lenient report = %+v, want %d skipped / %d dropped FKs", rep, tc.skipped, tc.droppedFKs)
			}
			if rep.Rows != tc.survivorRows {
				t.Fatalf("lenient rows = %d, want %d", rep.Rows, tc.survivorRows)
			}
		})
	}
}

func TestBadHeader(t *testing.T) {
	s := mustSchema(t, fixtureSchema)
	// A header missing a declared column is fatal under both policies:
	// there is no per-row recovery from a misaligned file.
	for _, opts := range []Options{{}, {SkipBadRows: true}} {
		_, _, err := Load(context.Background(), s, opts,
			CSVString("customer", "id,name\n1,alice\n"),
			CSVString("orders", "id,customer_id,total\n"))
		if !errors.Is(err, ErrBadHeader) {
			t.Fatalf("err = %v, want ErrBadHeader", err)
		}
	}
}

func TestSourceForUnknownTable(t *testing.T) {
	s := mustSchema(t, fixtureSchema)
	_, _, err := Load(context.Background(), s, Options{}, CSVString("nosuch", "id\n1\n"))
	if !errors.Is(err, ErrBadSchema) {
		t.Fatalf("err = %v, want ErrBadSchema", err)
	}
}

// TestStrictDanglingFKNamesFirstRow: with several dangling keys left at end
// of input, the strict error names the one whose referencing row comes
// first in input order, on every run.
func TestStrictDanglingFKNamesFirstRow(t *testing.T) {
	s := mustSchema(t, fixtureSchema)
	srcs := []Source{
		CSVString("customer", "id,name,city\n1,alice,paris\n"),
		CSVString("orders", "id,customer_id,total\n10,1,5\n11,94,5\n12,92,5\n13,93,5\n14,91,5\n"),
	}
	for run := 0; run < 50; run++ {
		_, _, err := Load(context.Background(), s, Options{}, srcs...)
		var re *RowError
		if !errors.As(err, &re) || !errors.Is(err, ErrDanglingFK) || re.Table != "orders" || re.Row != 2 ||
			err.Error() != "table orders row 2: ingest: dangling foreign key: no row customer:94" {
			t.Fatalf("run %d: err = %v, want the dangling key of orders row 2", run, err)
		}
	}
}
