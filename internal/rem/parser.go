package rem

import "repro/internal/syntax"

// grammar is rex's table plus the prefix binder "!x,y." and the postfix
// condition "[c]".
var grammar = syntax.Regular[Expr]{
	Lang:   "rem",
	Eps:    Eps{},
	Any:    Any{},
	Lit:    func(label string) Expr { return Lit{Label: label} },
	Concat: func(factors []Expr) Expr { return Concat{Factors: factors} },
	Union:  func(alts []Expr) Expr { return Union{Alts: alts} },
	Prefix: []syntax.Prefix[Expr]{{Tok: "!", Parse: parseBinder}},
	Postfix: []syntax.Postfix[Expr]{
		syntax.Wrap("*", func(e Expr) Expr { return Star{Inner: e} }),
		syntax.Wrap("+", func(e Expr) Expr { return Plus{Inner: e} }),
		syntax.Wrap("?", func(e Expr) Expr { return Opt{Inner: e} }),
		{Tok: "[", Apply: parseTest},
	},
}

// Parse parses the concrete REM syntax documented in the package comment.
func Parse(input string) (Expr, error) { return grammar.Parse(input) }

// MustParse is Parse that panics on error.
func MustParse(input string) Expr { return syntax.Must(Parse(input)) }

// parseBinder reads the variables and '.' of a binder "!x,y." and returns
// the wrapper for the factor it binds.
func parseBinder(s *syntax.Scanner) (func(Expr) Expr, error) {
	var vars []string
	for len(vars) == 0 || s.Accept(",") {
		v, err := s.Label()
		if err != nil {
			return nil, err
		}
		vars = append(vars, v)
	}
	if err := s.Expect("."); err != nil {
		return nil, err
	}
	return func(inner Expr) Expr { return Bind{Vars: vars, Inner: inner} }, nil
}

// parseTest reads the condition and ']' of a postfix test "[c]".
func parseTest(s *syntax.Scanner, inner Expr) (Expr, error) {
	cond, err := condOr(s)
	if err == nil {
		err = s.Expect("]")
	}
	return Test{Inner: inner, Cond: cond}, err
}

// Condition grammar: or-level has lowest precedence.
func condOr(s *syntax.Scanner) (Cond, error) {
	return syntax.LeftAssoc(s, "|", condAnd, func(l, r Cond) Cond { return COr{L: l, R: r} })
}

func condAnd(s *syntax.Scanner) (Cond, error) {
	return syntax.LeftAssoc(s, "&", condAtom, func(l, r Cond) Cond { return CAnd{L: l, R: r} })
}

func condAtom(s *syntax.Scanner) (Cond, error) {
	if s.Accept("(") {
		return syntax.Nest(s, condOr, ")")
	}
	v, err := s.Label()
	switch {
	case err != nil:
		return nil, err
	case s.Accept("!="):
		return CAtom{Var: v, Neq: true}, nil
	case s.Accept("="):
		return CAtom{Var: v}, nil
	}
	return nil, s.Expected("'=' or '!=' after variable " + v)
}
