// Package syntaxtest holds the shared half of the query-language parsers'
// fuzz targets: the seed corpus and the invariants every parse must keep.
package syntaxtest

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"maps"
	"path/filepath"
	"slices"
	"strconv"
	"testing"

	"repro/internal/syntax"
)

// Seeds returns every string literal in the Go files matching the glob
// patterns (relative to the calling test's package directory), sorted and
// without duplicates. Seeding with all literals of a package's tests and of
// examples/ covers every query string they parse, accepted or rejected.
func Seeds(tb testing.TB, patterns ...string) []string {
	tb.Helper()
	set := make(map[string]bool)
	fset := token.NewFileSet()
	for _, pattern := range patterns {
		files, err := filepath.Glob(pattern)
		if err != nil {
			tb.Fatal(err)
		}
		for _, file := range files {
			f, err := parser.ParseFile(fset, file, nil, 0)
			if err != nil {
				tb.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if s, err := strconv.Unquote(lit.Value); err == nil {
						set[s] = true
					}
				}
				return true
			})
		}
	}
	if len(set) == 0 {
		tb.Fatalf("no string literals in %v", patterns)
	}
	return slices.Sorted(maps.Keys(set))
}

// Check parses input in lang and asserts the parser invariants: parsing
// never panics; a rejection is a *syntax.ParseError of lang with an offset
// inside the input, and a nil expression; and an accepted expression prints
// to text that parses again and prints the same (String is a fixpoint after
// one round).
func Check[E fmt.Stringer](t *testing.T, lang string, parse func(string) (E, error), input string) {
	t.Helper()
	e, err := parse(input)
	if err != nil {
		var pe *syntax.ParseError
		if !errors.As(err, &pe) || pe.Lang != lang || pe.Offset < 0 || pe.Offset > len(input) {
			t.Fatalf("%q: want a %s *syntax.ParseError inside the input, got %#v", input, lang, err)
		}
		if any(e) != nil {
			t.Fatalf("%q: rejected, but returned %#v", input, e)
		}
		return
	}
	printed := e.String()
	again, err := parse(printed)
	if err != nil {
		t.Fatalf("%q parsed, but its printed form %q does not: %v", input, printed, err)
	}
	if reprinted := again.String(); reprinted != printed {
		t.Fatalf("%q prints as %q, which re-prints as %q", input, printed, reprinted)
	}
}
