package gxpath

import (
	"testing"

	"repro/internal/syntax/syntaxtest"
)

// FuzzParse feeds each input to both entry points, paths and nodes (one
// target per package, so `go test -fuzz '^FuzzParse'` selects it alone).
func FuzzParse(f *testing.F) {
	for _, s := range syntaxtest.Seeds(f, "*_test.go", "../../examples/*/*.go") {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		syntaxtest.Check(t, "gxpath", ParsePath, input)
		syntaxtest.Check(t, "gxpath", ParseNode, input)
	})
}
