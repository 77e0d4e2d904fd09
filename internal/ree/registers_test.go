package ree

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/datagraph"
	"repro/internal/ra"
	"repro/internal/rem"
)

// Queries of any register count run on the one interned kernel: answers
// agree with path enumeration by the direct matcher, and a warmed-up
// evaluation allocates no more than a query of eight registers.

// nested wraps "a b" in depth tests. With grow, each level also appends a
// step on any label, so the levels test different positions, and the
// outermost test is ≠.
func nested(depth int, grow bool) string {
	e := "a b"
	for k := 1; k <= depth; k++ {
		switch {
		case !grow:
			e = "(" + e + ")="
		case k < depth:
			e = "(" + e + " .)="
		default:
			e = "(" + e + " .)!="
		}
	}
	return e
}

// mostlyEqualGraph has one value on most nodes, so deep chains of = tests
// still find answers; a few nodes hold another value or the null.
func mostlyEqualGraph(seed int64, n, e int) *datagraph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := datagraph.New()
	for i := 0; i < n; i++ {
		v := datagraph.V("v0")
		switch rng.Intn(8) {
		case 0, 1:
			v = datagraph.V("v1")
		case 2:
			v = datagraph.Null()
		}
		g.MustAddNode(datagraph.NodeID(fmt.Sprintf("n%d", i)), v)
	}
	for k := 0; k < e; k++ {
		g.MustAddEdge(datagraph.NodeID(fmt.Sprintf("n%d", rng.Intn(n))), []string{"a", "b"}[rng.Intn(2)],
			datagraph.NodeID(fmt.Sprintf("n%d", rng.Intn(n))))
	}
	return g
}

func TestManyRegistersOneKernel(t *testing.T) {
	vars := make([]string, 9)
	for i := range vars {
		vars[i] = fmt.Sprintf("x%d", i+1)
	}
	binder := "!" + strings.Join(vars, ",") + "."
	// Each case's automaton is what its query's EvalRange runs; oracle is
	// a REE of the same language, every accepted path of length maxLen.
	cases := []struct {
		name   string
		q      *ra.Automaton
		regs   int
		oracle Expr
		maxLen int
	}{
		{"depth 9", MustParseQuery(nested(9, false)).Automaton(), 9, MustParse(nested(9, false)), 2},
		{"depth 12", MustParseQuery(nested(12, false)).Automaton(), 12, MustParse(nested(12, false)), 2},
		{"depth 9, growing", MustParseQuery(nested(9, true)).Automaton(), 9, MustParse(nested(9, true)), 11},
		{"REM, 9 variables", rem.MustParseQuery(binder + "(a b[x1=])").Automaton(), 9, MustParse("(a b)="), 2},
	}
	for _, c := range cases {
		if c.q.NumRegs != c.regs {
			t.Fatalf("%s: %d registers, want %d", c.name, c.q.NumRegs, c.regs)
		}
		answered := false
		for seed := int64(0); seed < 4; seed++ {
			g := mostlyEqualGraph(seed, 8, 12)
			for _, mode := range modes {
				got := datagraph.NewPairSet()
				c.q.EvalRange(g, 0, g.NumNodes(), mode, got.Add)
				if want := enumerate(g, c.oracle, mode, c.maxLen); !got.Equal(want) {
					t.Fatalf("%s, seed %d, %v: kernel %v, enumeration %v", c.name, seed, mode, got.Sorted(), want.Sorted())
				}
				answered = answered || got.Len() > 0
			}
		}
		if !answered {
			t.Fatalf("%s: no answers on any graph, nothing compared", c.name)
		}
	}
	if raceEnabled {
		return // the race detector drops pooled scratches at random
	}
	g := mostlyEqualGraph(1, 300, 900)
	g.Freeze()
	allocs := func(q *ra.Automaton) float64 {
		run := func() { q.EvalRange(g, 0, g.NumNodes(), datagraph.SQLNulls, func(int, int) {}) }
		run()
		return testing.AllocsPerRun(5, run)
	}
	limit := allocs(MustParseQuery(nested(8, false)).Automaton())
	for _, c := range cases {
		if got := allocs(c.q); got > limit {
			t.Errorf("%s: %.0f allocs per evaluation, depth 8 makes %.0f", c.name, got, limit)
		}
	}
}
