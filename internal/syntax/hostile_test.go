package syntax_test

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	"repro/internal/gxpath"
	"repro/internal/ree"
	"repro/internal/rem"
	"repro/internal/rex"
	"repro/internal/syntax"
)

// shape returns query text holding n nesting levels.
type shape func(n int) string

func around(open, inner, closing string) shape {
	return func(n int) string { return strings.Repeat(open, n) + inner + strings.Repeat(closing, n) }
}

func after(inner, op string) shape {
	return func(n int) string { return inner + strings.Repeat(op, n) }
}

func before(op, inner string) shape {
	return func(n int) string { return strings.Repeat(op, n) + inner }
}

// entries are the five parser entry points, each with its nesting shapes:
// brackets first, then postfix and prefix chains.
var entries = []struct {
	lang   string
	parse  func(string) error
	nest   shape
	chains []shape
	flat   bool // concatenation is a flat list, not a chain of joins
}{
	{"rex", func(s string) error { _, err := rex.Parse(s); return err },
		around("(", "a", ")"), []shape{after("a", "*")}, true},
	{"ree", func(s string) error { _, err := ree.Parse(s); return err },
		around("(", "a", ")"), []shape{after("a", "="), after("a", "!=")}, true},
	{"rem", func(s string) error { _, err := rem.Parse(s); return err },
		around("(", "a", ")"), []shape{after("a", "+"), before("!x.", "a"), func(n int) string { return "a[" + around("(", "x=", ")")(n-1) + "]" }}, true},
	{"gxpath", func(s string) error { _, err := gxpath.ParsePath(s); return err },
		around("(", "a", ")"), []shape{after("a", "="), before("~", "a")}, false},
	{"gxpath", func(s string) error { _, err := gxpath.ParseNode(s); return err },
		func(n int) string { return around("(", "<a>", ")")(n - 1) }, []shape{func(n int) string { return before("!", "<a>")(n - 1) }}, false},
}

// parseError asserts err is a *syntax.ParseError of lang with an offset
// inside input.
func parseError(t *testing.T, lang, input string, err error) *syntax.ParseError {
	t.Helper()
	var pe *syntax.ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("%s: error %v for %.40q… is not a *syntax.ParseError", lang, err, input)
	}
	if pe.Lang != lang || pe.Offset < 0 || pe.Offset > len(input) {
		t.Fatalf("%s: error %+v for %d bytes of input", lang, pe, len(input))
	}
	return pe
}

// allocated returns the bytes the heap handed out while f ran.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestHostileInputs feeds every entry point text a network client could
// send to stall or crash a server: nesting far past MaxDepth must come back
// as a ParseError found within the first MaxDepth+1 levels (so without
// reading the rest, and without exhausting the stack), MaxDepth levels must
// still parse, and lexing must allocate in proportion to the input.
func TestHostileInputs(t *testing.T) {
	for _, e := range entries {
		for i, sh := range append([]shape{e.nest}, e.chains...) {
			if err := e.parse(sh(syntax.MaxDepth)); err != nil {
				t.Errorf("%s: %d levels of %.20q… do not parse: %v", e.lang, syntax.MaxDepth, sh(3), err)
			}
			limit := len(sh(syntax.MaxDepth + 1))
			hostile := sh(1 << 20)
			if i > 0 {
				hostile = sh(1 << 22)
			}
			for _, input := range []string{sh(syntax.MaxDepth + 1), hostile} {
				pe := parseError(t, e.lang, input, e.parse(input))
				if pe.Offset > limit {
					t.Errorf("%s: depth error for %.20q… at offset %d, past the first %d levels (%d bytes)", e.lang, input, pe.Offset, syntax.MaxDepth+1, limit)
				}
			}
		}

		input := strings.Repeat("a ", 32<<10) // 64 KiB
		var err error
		bytes := allocated(func() { err = e.parse(input) })
		if e.flat && err != nil {
			t.Errorf("%s: 64 KiB of \"a \": %v", e.lang, err)
		}
		if !e.flat {
			// GXPath folds juxtaposition into a chain of binary joins,
			// one level each, so this is nesting far past MaxDepth.
			parseError(t, e.lang, input, err)
		}
		// The tree alone takes 16 bytes per input byte here: each two-byte
		// "a " costs a 16-byte Lit and a 16-byte slot of Concat.Factors,
		// and growing Factors by append costs a few times that again. A
		// lexer that copies the rest of the input per token allocates
		// tens of thousands of times the input instead.
		if bytes > 64*uint64(len(input)) {
			t.Errorf("%s: parsing 64 KiB of \"a \" allocated %d bytes, over 64× the input", e.lang, bytes)
		}
	}
}
