package rex

import (
	"fmt"

	"repro/internal/ra"
)

// build adds e to b by the Thompson construction of package ra and
// returns its fragment. It is the one translation of the regular
// operators; Compile seals it into an automaton.
func build(b *ra.Builder, e Regex) ra.Frag {
	switch t := e.(type) {
	case Eps:
		return b.Epsilon()
	case Lit:
		return b.Symbol(t.Label, false)
	case Any:
		return b.Symbol("", true)
	case Concat:
		return b.Concat(len(t.Factors), func(i int) ra.Frag { return build(b, t.Factors[i]) })
	case Union:
		return b.Union(len(t.Alts), func(i int) ra.Frag { return build(b, t.Alts[i]) })
	case Star:
		return b.Star(build(b, t.Inner))
	case Plus:
		return b.Plus(build(b, t.Inner))
	case Opt:
		return b.Opt(build(b, t.Inner))
	default:
		panic(fmt.Sprintf("rex: unknown regex node %T", e))
	}
}

// Compile returns the zero-register automaton of e: build's fragment,
// finished. Its Determinize is e's DFA.
func Compile(e Regex) *ra.Automaton {
	b := &ra.Builder{}
	f := build(b, e)
	return b.Finish(f.Start, f.Accept)
}
