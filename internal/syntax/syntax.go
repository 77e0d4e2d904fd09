// Package syntax is the one front end of the query-language parsers. Every
// parser (rex, ree, rem, gxpath) reads its text through a Scanner; rex, ree
// and rem are operator tables for one loop, Regular, over the
// regular-expression grammar the paper's REE and REM extend (Section 3):
//
//	union  := concat ('|' concat)*
//	concat := factor+
//	factor := prefix factor | atom postfix*
//	atom   := label | '.' | '(' union ')' | '()'
//
// Labels are runs of a language's label runes, and separators may stand
// between any two tokens. Left-associative binary levels, such as the '&'
// and '|' of REM conditions and of GXPath, go through LeftAssoc.
//
// Nesting is bounded once, here: each bracket and each operator applied
// around an operand (prefix, postfix or binary join) opens one level, and
// text that holds more than MaxDepth levels open at once is rejected. This
// keeps the parsers' recursion, and every later walk of the tree (printing,
// compiling, evaluating), shallow whatever the input.
package syntax

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// MaxDepth is the deepest nesting any query text may hold.
const MaxDepth = 1000

// Spaces are the separators of rex, ree and rem; GXPath adds '/'.
const Spaces = " \t\n"

// ParseError is the one error every parser returns.
type ParseError struct {
	Lang   string // rex, ree, rem or gxpath
	Offset int    // byte offset into the input, 0 ≤ Offset ≤ len(input)
	Msg    string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("%s: %s at offset %d", e.Lang, e.Msg, e.Offset)
}

// LabelRune reports whether r can occur in a label: letters, digits and
// _ - # ↔ (the last two spell the separator labels of the PCP gadget).
func LabelRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-' || r == '#' || r == '↔'
}

// Scanner is a cursor over query text. Its token methods, all but Glued,
// skip separators first.
type Scanner struct {
	lang, src  string
	pos, depth int
	seps       string          // bytes skipped between tokens
	label      func(rune) bool // runes labels are made of
}

// NewScanner returns a scanner over src for the language lang, skipping the
// bytes in seps between tokens and lexing labels as runs of label runes.
func NewScanner(lang, src, seps string, label func(rune) bool) *Scanner {
	return &Scanner{lang: lang, src: src, seps: seps, label: label}
}

func (s *Scanner) skip() {
	for s.pos < len(s.src) && strings.IndexByte(s.seps, s.src[s.pos]) >= 0 {
		s.pos++
	}
}

// Peek reports whether tok comes next.
func (s *Scanner) Peek(tok string) bool {
	s.skip()
	return strings.HasPrefix(s.src[s.pos:], tok)
}

// Accept consumes tok if it comes next.
func (s *Scanner) Accept(tok string) bool {
	if !s.Peek(tok) {
		return false
	}
	s.pos += len(tok)
	return true
}

// Glued consumes tok only if it follows the previous token with no
// separator between them (GXPath's a-, a* and (α)*).
func (s *Scanner) Glued(tok string) bool {
	if !strings.HasPrefix(s.src[s.pos:], tok) {
		return false
	}
	s.pos += len(tok)
	return true
}

// Expect consumes tok, or reports that it is missing.
func (s *Scanner) Expect(tok string) error {
	if s.Accept(tok) {
		return nil
	}
	return s.Expected(fmt.Sprintf("%q", tok))
}

// AtLabel reports whether a label comes next.
func (s *Scanner) AtLabel() bool {
	s.skip()
	r, _ := utf8.DecodeRuneInString(s.src[s.pos:])
	return s.pos < len(s.src) && s.label(r)
}

// Label consumes the label that comes next.
func (s *Scanner) Label() (string, error) {
	s.skip()
	start := s.pos
	for s.pos < len(s.src) {
		r, size := utf8.DecodeRuneInString(s.src[s.pos:])
		if !s.label(r) {
			break
		}
		s.pos += size
	}
	if s.pos == start {
		return "", s.Expected("a label")
	}
	return s.src[start:s.pos], nil
}

// End reports anything left after the expression.
func (s *Scanner) End() error {
	s.skip()
	if s.pos < len(s.src) {
		return s.errorf("unexpected %s", s.found())
	}
	return nil
}

// Enter opens one nesting level, failing beyond MaxDepth.
func (s *Scanner) Enter() error {
	if s.depth++; s.depth > MaxDepth {
		return s.errorf("nesting deeper than %d levels", MaxDepth)
	}
	return nil
}

// Leave closes n nesting levels.
func (s *Scanner) Leave(n int) { s.depth -= n }

// Expected reports that what was expected next but something else came.
func (s *Scanner) Expected(what string) error {
	s.skip()
	return s.errorf("expected %s, got %s", what, s.found())
}

func (s *Scanner) errorf(format string, args ...any) error {
	return &ParseError{Lang: s.lang, Offset: s.pos, Msg: fmt.Sprintf(format, args...)}
}

// found names what comes next, for error messages.
func (s *Scanner) found() string {
	if s.pos >= len(s.src) {
		return "end of input"
	}
	_, size := utf8.DecodeRuneInString(s.src[s.pos:])
	return fmt.Sprintf("%q", s.src[s.pos:s.pos+size])
}

// Parse parses the whole of s's input with top, and returns the zero E
// with the error if anything fails or input is left over.
func Parse[E any](s *Scanner, top func(*Scanner) (E, error)) (E, error) {
	e, err := top(s)
	if err == nil {
		err = s.End()
	}
	if err != nil {
		var zero E
		return zero, err
	}
	return e, nil
}

// Must returns e, panicking if err is not nil; for the MustParse functions
// that fixed expressions in tests and constructions use.
func Must[E any](e E, err error) E {
	if err != nil {
		panic(err)
	}
	return e
}

// Nest parses inner one nesting level deeper, then expects closing: the
// closing bracket, or "" for the operand of a prefix operator.
func Nest[E any](s *Scanner, inner func(*Scanner) (E, error), closing string) (E, error) {
	if err := s.Enter(); err != nil {
		var zero E
		return zero, err
	}
	e, err := inner(s)
	if err == nil {
		err = s.Expect(closing)
	}
	s.Leave(1)
	return e, err
}

// LeftAssoc parses operand (op operand)* and folds the operands left to
// right, so a op b op c is join(join(a, b), c); each join is one nesting
// level.
func LeftAssoc[E any](s *Scanner, op string, operand func(*Scanner) (E, error), join func(l, r E) E) (E, error) {
	l, err := operand(s)
	joins := 0
	for ; err == nil && s.Accept(op); joins++ {
		if err = s.Enter(); err == nil {
			var r E
			r, err = operand(s)
			l = join(l, r)
		}
	}
	s.Leave(joins)
	return l, err
}

// Regular is a language's table for the shared regular-expression loop:
// the constructors of its nodes and its prefix and postfix operators.
type Regular[E any] struct {
	Lang     string
	Eps, Any E
	Lit      func(label string) E
	Concat   func(factors []E) E
	Union    func(alts []E) E
	Prefix   []Prefix[E]
	Postfix  []Postfix[E]
}

// Prefix is an operator before a factor. Once Tok is consumed, Parse reads
// whatever stands between it and the operand and returns the operand's
// wrapper.
type Prefix[E any] struct {
	Tok   string
	Parse func(s *Scanner) (wrap func(E) E, err error)
}

// Postfix is an operator after an atom; Apply builds its node once Tok is
// consumed.
type Postfix[E any] struct {
	Tok   string
	Apply func(s *Scanner, inner E) (E, error)
}

// Wrap is the postfix operator tok that only wraps its operand.
func Wrap[E any](tok string, wrap func(E) E) Postfix[E] {
	return Postfix[E]{Tok: tok, Apply: func(_ *Scanner, inner E) (E, error) { return wrap(inner), nil }}
}

// Parse parses input in g's language.
func (g *Regular[E]) Parse(input string) (E, error) {
	return Parse(NewScanner(g.Lang, input, Spaces, LabelRune), g.union)
}

func (g *Regular[E]) union(s *Scanner) (E, error) {
	first, err := g.concat(s)
	if err != nil || !s.Peek("|") {
		return first, err
	}
	alts := []E{first}
	for s.Accept("|") {
		alt, err := g.concat(s)
		if err != nil {
			return alt, err
		}
		alts = append(alts, alt)
	}
	return g.Union(alts), nil
}

func (g *Regular[E]) concat(s *Scanner) (E, error) {
	first, err := g.factor(s)
	if err != nil || !g.startsFactor(s) {
		return first, err
	}
	factors := []E{first}
	for g.startsFactor(s) {
		f, err := g.factor(s)
		if err != nil {
			return f, err
		}
		factors = append(factors, f)
	}
	return g.Concat(factors), nil
}

func (g *Regular[E]) startsFactor(s *Scanner) bool {
	if s.Peek("(") || s.Peek(".") || s.AtLabel() {
		return true
	}
	for _, op := range g.Prefix {
		if s.Peek(op.Tok) {
			return true
		}
	}
	return false
}

func (g *Regular[E]) factor(s *Scanner) (E, error) {
	for _, op := range g.Prefix {
		if s.Accept(op.Tok) {
			wrap, err := op.Parse(s)
			if err != nil {
				return g.Eps, err
			}
			inner, err := Nest(s, g.factor, "")
			return wrap(inner), err
		}
	}
	e, err := g.atom(s)
	applied := 0
	for ; err == nil; applied++ {
		op := g.postfix(s)
		if op == nil {
			break
		}
		if err = s.Enter(); err == nil {
			e, err = op.Apply(s, e)
		}
	}
	s.Leave(applied)
	return e, err
}

// postfix consumes and returns the postfix operator that comes next, if any.
func (g *Regular[E]) postfix(s *Scanner) *Postfix[E] {
	for i := range g.Postfix {
		if s.Accept(g.Postfix[i].Tok) {
			return &g.Postfix[i]
		}
	}
	return nil
}

func (g *Regular[E]) atom(s *Scanner) (E, error) {
	switch {
	case s.Accept("("):
		if s.Accept(")") {
			return g.Eps, nil
		}
		return Nest(s, g.union, ")")
	case s.Accept("."):
		return g.Any, nil
	case s.AtLabel():
		label, err := s.Label()
		return g.Lit(label), err
	}
	return g.Eps, s.Expected("an expression")
}
