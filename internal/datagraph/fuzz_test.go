package datagraph

import (
	"errors"
	"testing"

	"repro/internal/syntax/syntaxtest"
)

// FuzzParse checks the graph-text parser: it never panics; it rejects with
// a *ParseError and no graph, or accepts a graph whose printed form parses
// back to the same graph; and the accepted graph freezes to the very
// snapshot Build makes from its node list and edge log, so the CSR is
// pinned against both construction paths.
func FuzzParse(f *testing.F) {
	for _, s := range syntaxtest.Seeds(f, "*_test.go", "../../examples/*/*.go") {
		f.Add(s)
	}
	f.Add("node a 1\nnode b null\nnode c 1\nedge a x b\nedge a y b\nedge b x b\nedge c x a\nedge b y a\n")
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ParseString(input)
		if err != nil {
			var pe *ParseError
			if !errors.As(err, &pe) || g != nil {
				t.Fatalf("%q: want a *ParseError and no graph, got %#v and %v", input, err, g)
			}
			return
		}
		printed := g.String()
		again, err := ParseString(printed)
		if err != nil {
			t.Fatalf("%q parsed, but its printed form %q does not: %v", input, printed, err)
		}
		if again.String() != printed {
			t.Fatalf("%q prints as %q, which re-prints as %q", input, printed, again.String())
		}
		built, err := Build(logOf(g))
		if err != nil {
			t.Fatalf("%q: Build over the parsed log: %v", input, err)
		}
		equalSnapshots(t, g.Freeze(), built.Snapshot())
	})
}
