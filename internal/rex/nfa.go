package rex

import (
	"fmt"

	"repro/internal/ra"
)

// NFA is a nondeterministic finite automaton over edge labels, built by
// Thompson construction. Transitions carry either a specific label, the
// wildcard Any (matching every label), or ε.
type NFA struct {
	// NumStates is the number of states, numbered 0..NumStates-1.
	NumStates int
	// Start is the initial state.
	Start int
	// Accept is the single accepting state (Thompson construction invariant).
	Accept int
	// Eps[s] lists the ε-successors of s.
	Eps [][]int
	// Steps[s] lists the consuming transitions out of s.
	Steps [][]NFAStep

	epsClosure [][]int // memoized ε-closures
}

// NFAStep is a consuming transition: on reading a label matching the step,
// move to To.
type NFAStep struct {
	// Label is the required label; ignored when AnyLabel is set.
	Label string
	// AnyLabel makes the step match every label (the paper's Σ).
	AnyLabel bool
	To       int
}

// Matches reports whether the step fires on the given label.
func (s NFAStep) Matches(label string) bool { return s.AnyLabel || s.Label == label }

// Build adds e to b by the Thompson construction of package ra and
// returns its fragment. It is the one translation of the regular
// operators: rpq compiles an RPQ through it, and Compile reads its result
// back as an NFA.
func Build(b *ra.Builder, e Regex) ra.Frag {
	switch t := e.(type) {
	case Eps:
		return b.Epsilon()
	case Lit:
		return b.Symbol(t.Label, false)
	case Any:
		return b.Symbol("", true)
	case Concat:
		return b.Concat(len(t.Factors), func(i int) ra.Frag { return Build(b, t.Factors[i]) })
	case Union:
		return b.Union(len(t.Alts), func(i int) ra.Frag { return Build(b, t.Alts[i]) })
	case Star:
		return b.Star(Build(b, t.Inner))
	case Plus:
		return b.Plus(Build(b, t.Inner))
	case Opt:
		return b.Opt(Build(b, t.Inner))
	default:
		panic(fmt.Sprintf("rex: unknown regex node %T", e))
	}
}

// Compile builds the Thompson NFA of e: Build's automaton, whose
// transitions carry no conditions or registers, as ε-moves and steps.
func Compile(e Regex) *NFA {
	b := &ra.Builder{}
	f := Build(b, e)
	a := b.Finish(f.Start, f.Accept)
	n := &NFA{
		NumStates:  a.NumStates,
		Start:      a.Start,
		Accept:     a.Accept,
		Eps:        make([][]int, a.NumStates),
		Steps:      make([][]NFAStep, a.NumStates),
		epsClosure: make([][]int, a.NumStates),
	}
	for s, ts := range a.Trans {
		for _, t := range ts {
			if t.Eps {
				n.Eps[s] = append(n.Eps[s], t.To)
			} else {
				n.Steps[s] = append(n.Steps[s], NFAStep{Label: t.Label, AnyLabel: t.AnyLabel, To: t.To})
			}
		}
	}
	// Precompute every ε-closure so the NFA is immutable afterwards: compiled
	// queries are shared across the engine's worker goroutines, and a lazy
	// memo would race.
	for s := 0; s < n.NumStates; s++ {
		n.Closure(s)
	}
	return n
}

// Closure returns the ε-closure of state s (memoized, sorted).
func (n *NFA) Closure(s int) []int {
	if n.epsClosure[s] != nil {
		return n.epsClosure[s]
	}
	seen := make([]bool, n.NumStates)
	stack := []int{s}
	seen[s] = true
	var out []int
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, cur)
		for _, nx := range n.Eps[cur] {
			if !seen[nx] {
				seen[nx] = true
				stack = append(stack, nx)
			}
		}
	}
	// Insertion sort keeps closures deterministic for subset construction.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	n.epsClosure[s] = out
	return out
}

// closureOfSet returns the ε-closure of a set of states as a sorted set.
func (n *NFA) closureOfSet(states []int) []int {
	seen := make([]bool, n.NumStates)
	var out []int
	for _, s := range states {
		for _, c := range n.Closure(s) {
			if !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Matches reports whether the NFA accepts the word (sequence of labels).
func (n *NFA) Matches(word []string) bool {
	cur := n.Closure(n.Start)
	for _, label := range word {
		var next []int
		seen := make(map[int]struct{})
		for _, s := range cur {
			for _, step := range n.Steps[s] {
				if step.Matches(label) {
					if _, dup := seen[step.To]; !dup {
						seen[step.To] = struct{}{}
						next = append(next, step.To)
					}
				}
			}
		}
		if len(next) == 0 {
			return false
		}
		cur = n.closureOfSet(next)
	}
	for _, s := range cur {
		if s == n.Accept {
			return true
		}
	}
	return false
}

// Empty reports whether L(NFA) = ∅, i.e. the accept state is unreachable.
func (n *NFA) Empty() bool {
	seen := make([]bool, n.NumStates)
	stack := []int{n.Start}
	seen[n.Start] = true
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if s == n.Accept {
			return false
		}
		for _, nx := range n.Eps[s] {
			if !seen[nx] {
				seen[nx] = true
				stack = append(stack, nx)
			}
		}
		for _, st := range n.Steps[s] {
			if !seen[st.To] {
				seen[st.To] = true
				stack = append(stack, st.To)
			}
		}
	}
	return true
}

// SomeWord returns a shortest accepted word, if any (BFS over states).
func (n *NFA) SomeWord() ([]string, bool) {
	type entry struct {
		state int
		word  []string
	}
	seen := make([]bool, n.NumStates)
	queue := []entry{}
	for _, c := range n.Closure(n.Start) {
		if !seen[c] {
			seen[c] = true
			queue = append(queue, entry{c, nil})
		}
	}
	for len(queue) > 0 {
		e := queue[0]
		queue = queue[1:]
		if e.state == n.Accept {
			return e.word, true
		}
		for _, st := range n.Steps[e.state] {
			label := st.Label
			if st.AnyLabel {
				label = "·" // canonical wildcard witness
			}
			for _, c := range n.Closure(st.To) {
				if !seen[c] {
					seen[c] = true
					w := make([]string, len(e.word)+1)
					copy(w, e.word)
					w[len(e.word)] = label
					queue = append(queue, entry{c, w})
				}
			}
		}
	}
	return nil, false
}
