package experiments

import (
	"slices"
	"strings"
	"sync"
	"testing"
)

// quickRun is one quick-mode run of an experiment, shared by the tests
// below so that each experiment runs once per test binary.
type quickRun struct {
	tab Table
	err error
}

var (
	quickMu   sync.Mutex
	quickRuns = map[string]quickRun{}
)

func runQuick(e Experiment) (Table, error) {
	quickMu.Lock()
	defer quickMu.Unlock()
	r, ok := quickRuns[e.ID]
	if !ok {
		r.tab, r.err = e.Run(true)
		quickRuns[e.ID] = r
	}
	return r.tab, r.err
}

// TestAllExperimentsRunQuick runs every experiment in quick mode and
// sanity-checks its table: rows present, widths consistent, id rendered.
func TestAllExperimentsRunQuick(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tab, err := runQuick(e)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if tab.ID != e.ID {
				t.Errorf("table id %q != %q", tab.ID, e.ID)
			}
			if len(tab.Rows) == 0 {
				t.Fatalf("%s produced no rows", e.ID)
			}
			for _, r := range tab.Rows {
				if len(r) != len(tab.Header) {
					t.Fatalf("%s: row width %d != header width %d: %v", e.ID, len(r), len(tab.Header), r)
				}
			}
			var sb strings.Builder
			tab.Fprint(&sb)
			if !strings.Contains(sb.String(), e.ID) {
				t.Errorf("%s: rendering missing id", e.ID)
			}
		})
	}
}

// Agreement columns must never read false: these are the correctness claims
// of the reproduction.
func TestAgreementColumnsHold(t *testing.T) {
	checks := map[string]string{ // experiment -> header of the column that must read "true" (or "-")
		"E2":  "clean⇔solution",
		"E4":  "agree",
		"E5":  "oracle-agrees",
		"E6":  "null⊆exact",
		"E8":  "oracle-agrees",
		"E9":  "views-agree",
		"E10": "avoidable≤bound",
		"E12": "matchers-agree",
	}
	for _, e := range All() {
		name, watched := checks[e.ID]
		if !watched {
			continue
		}
		tab, err := runQuick(e)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		col := slices.Index(tab.Header, name)
		if col < 0 {
			t.Fatalf("%s: no agreement column %q in header %v", e.ID, name, tab.Header)
		}
		for _, r := range tab.Rows {
			if col >= len(r) {
				t.Fatalf("%s: row %v has no column %d", e.ID, r, col)
			}
			if r[col] != "true" && r[col] != "-" && r[col] != "n/a" {
				t.Errorf("%s: agreement column %q reads %q in row %v", e.ID, name, r[col], r)
			}
		}
	}
}

func TestTableRendering(t *testing.T) {
	tab := Table{
		ID: "EX", Title: "demo", Claim: "none",
		Header: []string{"col1", "c2"},
		Rows:   [][]string{{"a", "bbbbbb"}},
		Notes:  []string{"a note"},
	}
	var sb strings.Builder
	tab.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"EX", "demo", "col1", "bbbbbb", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
}
