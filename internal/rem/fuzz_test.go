package rem

import (
	"testing"

	"repro/internal/syntax/syntaxtest"
)

func FuzzParse(f *testing.F) {
	for _, s := range syntaxtest.Seeds(f, "*_test.go", "../../examples/*/*.go") {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		syntaxtest.Check(t, "rem", Parse, input)
	})
}
