package rex

import "repro/internal/syntax"

// grammar is rex's table for the shared regular-expression loop.
var grammar = syntax.Regular[Regex]{
	Lang:   "rex",
	Eps:    Eps{},
	Any:    Any{},
	Lit:    func(label string) Regex { return Lit{Label: label} },
	Concat: func(factors []Regex) Regex { return Concat{Factors: factors} },
	Union:  func(alts []Regex) Regex { return Union{Alts: alts} },
	Postfix: []syntax.Postfix[Regex]{
		syntax.Wrap("*", func(e Regex) Regex { return Star{Inner: e} }),
		syntax.Wrap("+", func(e Regex) Regex { return Plus{Inner: e} }),
		syntax.Wrap("?", func(e Regex) Regex { return Opt{Inner: e} }),
	},
}

// Parse parses the concrete syntax documented in the package comment.
func Parse(input string) (Regex, error) { return grammar.Parse(input) }

// MustParse is Parse that panics on error; for fixed expressions in tests
// and gadget constructions.
func MustParse(input string) Regex { return syntax.Must(Parse(input)) }
