package gxpath

import "repro/internal/syntax"

// ParsePath parses a path expression in the concrete syntax of the package
// comment.
func ParsePath(input string) (PathExpr, error) { return parse(input, pathUnion) }

// ParseNode parses a node expression.
func ParseNode(input string) (NodeExpr, error) { return parse(input, nodeOr) }

// MustParsePath is ParsePath that panics on error.
func MustParsePath(input string) PathExpr { return syntax.Must(ParsePath(input)) }

// MustParseNode is ParseNode that panics on error.
func MustParseNode(input string) NodeExpr { return syntax.Must(ParseNode(input)) }

// parse reads GXPath text: '/' is an optional XPath-flavoured composition
// separator, and a label never holds '-', which GXPath glues on as the
// inverse marker a⁻ (unlike rex/ree/rem, whose labels may contain it).
func parse[E any](input string, top func(*syntax.Scanner) (E, error)) (E, error) {
	label := func(r rune) bool { return r != '-' && syntax.LabelRune(r) }
	return syntax.Parse(syntax.NewScanner("gxpath", input, syntax.Spaces+"/", label), top)
}

func pathUnion(s *syntax.Scanner) (PathExpr, error) {
	return syntax.LeftAssoc(s, "|", pathAnd, func(l, r PathExpr) PathExpr { return PUnion{L: l, R: r} })
}

// pathAnd handles the regular-GXPath intersection α & β (see regular.go);
// it binds tighter than union, looser than concatenation.
func pathAnd(s *syntax.Scanner) (PathExpr, error) {
	return syntax.LeftAssoc(s, "&", pathConcat, func(l, r PathExpr) PathExpr { return PAnd{L: l, R: r} })
}

// pathConcat folds juxtaposed factors left to right, as ConcatAll does.
func pathConcat(s *syntax.Scanner) (PathExpr, error) {
	l, err := pathFactor(s)
	joins := 0
	for ; err == nil && (s.Peek("(") || s.Peek("[") || s.Peek("~") || s.AtLabel()); joins++ {
		if err = s.Enter(); err == nil {
			var r PathExpr
			r, err = pathFactor(s)
			l = PConcat{L: l, R: r}
		}
	}
	s.Leave(joins)
	return l, err
}

func pathFactor(s *syntax.Scanner) (PathExpr, error) {
	e, err := pathAtom(s)
	applied := 0
	for ; err == nil; applied++ {
		switch {
		case s.Accept("="):
			e = PEq{Inner: e}
		case s.Accept("!="):
			e = PNeq{Inner: e}
		default:
			s.Leave(applied)
			return e, nil
		}
		err = s.Enter()
	}
	return e, err
}

func pathAtom(s *syntax.Scanner) (PathExpr, error) {
	switch {
	case s.Accept("~"):
		// Regular-GXPath complement (outside the core fragment).
		inner, err := syntax.Nest(s, pathAtom, "")
		return PNeg{Inner: inner}, err
	case s.Accept("("):
		if s.Accept(")") {
			return PEps{}, nil
		}
		e, err := syntax.Nest(s, pathUnion, ")")
		if err == nil && s.Glued("*") {
			// Regular-GXPath closure over an arbitrary path expression.
			return PStarAny{Inner: e}, nil
		}
		return e, err
	case s.Accept("["):
		cond, err := syntax.Nest(s, nodeOr, "]")
		return PTest{Cond: cond}, err
	}
	lab, err := s.Label()
	if err != nil {
		return nil, err
	}
	inverse := s.Glued("-")
	if s.Glued("*") {
		return PStar{Label: lab, Inverse: inverse}, nil
	}
	return PLabel{Label: lab, Inverse: inverse}, nil
}

func nodeOr(s *syntax.Scanner) (NodeExpr, error) {
	return syntax.LeftAssoc(s, "|", nodeAnd, func(l, r NodeExpr) NodeExpr { return NOr{L: l, R: r} })
}

func nodeAnd(s *syntax.Scanner) (NodeExpr, error) {
	return syntax.LeftAssoc(s, "&", nodeAtom, func(l, r NodeExpr) NodeExpr { return NAnd{L: l, R: r} })
}

func nodeAtom(s *syntax.Scanner) (NodeExpr, error) {
	switch {
	case s.Accept("!"):
		inner, err := syntax.Nest(s, nodeAtom, "")
		return NNot{Inner: inner}, err
	case s.Accept("<"):
		path, err := syntax.Nest(s, pathUnion, ">")
		return NExists{Path: path}, err
	case s.Accept("("):
		return syntax.Nest(s, nodeOr, ")")
	}
	return nil, s.Expected("a node expression")
}
