// Package experiments implements the reproduction experiments E1–E12: one
// per theorem/figure of the paper, each producing a printable table of
// measured results next to the paper's claim. The
// cmd/gsmbench binary is the front end; bench_test.go at the module root
// wraps the same workloads as testing.B benchmarks.
package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Table is a printable experiment result. The JSON form is what
// `gsmbench -json` emits and CI archives as BENCH_*.json artifacts, so the
// field names are part of the perf-trajectory format.
type Table struct {
	ID     string     `json:"id"`
	Title  string     `json:"title"`
	Claim  string     `json:"claim"` // the paper result being reproduced
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Notes  []string   `json:"notes,omitempty"`
}

// Fprint renders the table with aligned columns.
func (t Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s\n", t.ID, t.Title)
	fmt.Fprintf(w, "   paper: %s\n", t.Claim)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintf(w, "   %s\n", strings.Join(parts, "  "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Experiment is a runnable experiment. quick mode shrinks workloads so the
// full suite stays fast (used by tests); full mode is for gsmbench runs.
type Experiment struct {
	ID   string
	Name string
	Run  func(quick bool) (Table, error)
}

// All returns the experiment registry in order.
func All() []Experiment {
	return []Experiment{
		{"E1", "GXPath semantics & evaluation cost (Figure 1)", E1GXPath},
		{"E2", "Theorem 1 PCP gadget", E2PCPGadget},
		{"E3", "coNP exact search (Thm 2/Prop 2)", E3ExactCoNP},
		{"E4", "coNP-hardness via 3-colorability (Prop 3)", E4ThreeCol},
		{"E5", "one-inequality tractability (Prop 4)", E5OneInequality},
		{"E6", "SQL-null tractability (Thm 3/4)", E6CertainNull},
		{"E7", "approximation quality (Remark 1)", E7Approximation},
		{"E8", "equality-only queries (Thm 5/Cor 1)", E8EqualityOnly},
		{"E9", "relational encoding (Prop 1)", E9Relational},
		{"E10", "GXPath undecidability gadget (Thm 6/Lemma 2)", E10GXPathGadget},
		{"E11", "static analysis constructions (Thm 7)", E11StaticAnalysis},
		{"E12", "combined complexity REE vs REM (Thm 3)", E12Combined},
		{"E13", "static analysis of data RPQs (§3 citations)", E13StaticDataRPQ},
		{"E14", "incremental snapshot maintenance under updates", E14Streaming},
		{"E15", "session API amortization over query streams", E15SessionAmortization},
		{"E16", "HTTP serving layer: shared backends vs per-request sessions", E16Serving},
		{"E18", "relational bulk ingestion: streaming direct mapping + exchange", E18RelationalIngest},
	}
}
