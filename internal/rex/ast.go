// Package rex implements ordinary regular expressions over edge labels:
// the AST, the concrete syntax, and the structural helpers (words, Σ*,
// mentioned labels) the paper's mapping classes are defined by. It has no
// automaton of its own: Compile drives the Thompson construction of package
// ra and returns the resulting zero-register ra.Automaton, which
// evaluates the RPQs of Section 2 and determinizes (ra.DFA) for the shape
// checks of the PCP encodings and the word choices of Proposition 5.
//
// Concrete syntax accepted by Parse:
//
//	expr    := term ('|' term)*          union (the paper's e + e)
//	term    := factor factor*            concatenation (juxtaposition)
//	factor  := atom ('*' | '+' | '?')*   star, plus, optional
//	atom    := label | '.' | '(' expr ')' | '()'
//
// Labels are runs of [A-Za-z0-9_#↔-]; '.' matches any single label (so the
// reachability RPQ Σ* is written ".*"); '()' is ε.
package rex

import (
	"sort"
	"strings"
)

// Regex is the AST of a regular expression over edge labels.
type Regex interface {
	// String renders the expression in the concrete syntax accepted by Parse.
	String() string
	isRegex()
}

// Eps matches the empty word ε.
type Eps struct{}

// Lit matches exactly one edge label.
type Lit struct{ Label string }

// Any matches any single edge label (the paper's Σ).
type Any struct{}

// Concat matches the concatenation of its factors, in order.
type Concat struct{ Factors []Regex }

// Union matches any of its alternatives (the paper's e + e).
type Union struct{ Alts []Regex }

// Star matches zero or more repetitions.
type Star struct{ Inner Regex }

// Plus matches one or more repetitions (the paper's e⁺).
type Plus struct{ Inner Regex }

// Opt matches zero or one occurrence.
type Opt struct{ Inner Regex }

func (Eps) isRegex()    {}
func (Lit) isRegex()    {}
func (Any) isRegex()    {}
func (Concat) isRegex() {}
func (Union) isRegex()  {}
func (Star) isRegex()   {}
func (Plus) isRegex()   {}
func (Opt) isRegex()    {}

func (Eps) String() string   { return "()" }
func (l Lit) String() string { return l.Label }
func (Any) String() string   { return "." }

func (c Concat) String() string {
	parts := make([]string, len(c.Factors))
	for i, f := range c.Factors {
		s := f.String()
		if _, isUnion := f.(Union); isUnion {
			s = "(" + s + ")"
		}
		parts[i] = s
	}
	return strings.Join(parts, " ")
}

func (u Union) String() string {
	parts := make([]string, len(u.Alts))
	for i, a := range u.Alts {
		parts[i] = a.String()
	}
	return strings.Join(parts, "|")
}

func groupString(e Regex) string {
	switch e.(type) {
	case Lit, Any, Eps:
		return e.String()
	default:
		return "(" + e.String() + ")"
	}
}

func (s Star) String() string { return groupString(s.Inner) + "*" }
func (p Plus) String() string { return groupString(p.Inner) + "+" }
func (o Opt) String() string  { return groupString(o.Inner) + "?" }

// Word returns the regex matching exactly the given word a₁…aₙ (a word RPQ,
// Definition 3's right-hand sides). The empty word yields ε.
func Word(labels ...string) Regex {
	if len(labels) == 0 {
		return Eps{}
	}
	fs := make([]Regex, len(labels))
	for i, l := range labels {
		fs[i] = Lit{Label: l}
	}
	if len(fs) == 1 {
		return fs[0]
	}
	return Concat{Factors: fs}
}

// Reachability returns Σ*, the simplest reachability RPQ.
func Reachability() Regex { return Star{Inner: Any{}} }

// Labels returns the set of labels mentioned in the expression, sorted.
// Any (Σ) contributes nothing.
func Labels(e Regex) []string {
	set := make(map[string]struct{})
	var walk func(Regex)
	walk = func(e Regex) {
		switch t := e.(type) {
		case Lit:
			set[t.Label] = struct{}{}
		case Concat:
			for _, f := range t.Factors {
				walk(f)
			}
		case Union:
			for _, a := range t.Alts {
				walk(a)
			}
		case Star:
			walk(t.Inner)
		case Plus:
			walk(t.Inner)
		case Opt:
			walk(t.Inner)
		}
	}
	walk(e)
	out := make([]string, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// IsWord reports whether e denotes exactly one word, and returns that word.
// Word RPQs are the building blocks of relational mappings (Definition 3).
func IsWord(e Regex) ([]string, bool) {
	switch t := e.(type) {
	case Eps:
		return []string{}, true
	case Lit:
		return []string{t.Label}, true
	case Concat:
		var out []string
		for _, f := range t.Factors {
			w, ok := IsWord(f)
			if !ok {
				return nil, false
			}
			out = append(out, w...)
		}
		return out, true
	default:
		return nil, false
	}
}

// IsReachability reports whether e is the unconstrained reachability query
// Σ* (either Star{Any} or Any-plus with optional, recognised structurally).
func IsReachability(e Regex) bool {
	switch t := e.(type) {
	case Star:
		_, ok := t.Inner.(Any)
		return ok
	default:
		return false
	}
}
