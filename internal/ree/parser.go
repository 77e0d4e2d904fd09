package ree

import "repro/internal/syntax"

// grammar is rex's table plus the postfix operators '=' and '!=' (binding
// like '*').
var grammar = syntax.Regular[Expr]{
	Lang:   "ree",
	Eps:    Eps{},
	Any:    Any{},
	Lit:    func(label string) Expr { return Lit{Label: label} },
	Concat: func(factors []Expr) Expr { return Concat{Factors: factors} },
	Union:  func(alts []Expr) Expr { return Union{Alts: alts} },
	Postfix: []syntax.Postfix[Expr]{
		syntax.Wrap("*", func(e Expr) Expr { return Star{Inner: e} }),
		syntax.Wrap("+", func(e Expr) Expr { return Plus{Inner: e} }),
		syntax.Wrap("?", func(e Expr) Expr { return Opt{Inner: e} }),
		syntax.Wrap("=", func(e Expr) Expr { return Eq{Inner: e} }),
		syntax.Wrap("!=", func(e Expr) Expr { return Neq{Inner: e} }),
	},
}

// Parse parses the concrete REE syntax of the package comment.
func Parse(input string) (Expr, error) { return grammar.Parse(input) }

// MustParse is Parse that panics on error.
func MustParse(input string) Expr { return syntax.Must(Parse(input)) }
