package ra

import (
	"slices"
	"sort"
)

// DFA is a total deterministic automaton over Alphabet ∪ {Other}, where the
// column Other, at index len(Alphabet), stands for every label outside the
// alphabet. State 0 is the start state and Trans[s][Column(label)] the
// successor of s. Fixing a finite alphabet is what makes an any-label step
// determinizable: it fires on every column, Other included.
type DFA struct {
	Alphabet []string // sorted, without duplicates
	Trans    [][]int
	Accepts  []bool
}

// Column returns the transition column of label: its index in Alphabet, or
// len(Alphabet), the Other column, for a label outside it.
func (d *DFA) Column(label string) int {
	if i := sort.SearchStrings(d.Alphabet, label); i < len(d.Alphabet) && d.Alphabet[i] == label {
		return i
	}
	return len(d.Alphabet)
}

// Matches reports whether the DFA accepts the word.
func (d *DFA) Matches(word []string) bool {
	s := 0
	for _, label := range word {
		s = d.Trans[s][d.Column(label)]
	}
	return d.Accepts[s]
}

// Complement returns the DFA accepting exactly the words d rejects, over
// the same alphabet ∪ {Other}.
func (d *DFA) Complement() *DFA {
	acc := make([]bool, len(d.Accepts))
	for i, a := range d.Accepts {
		acc[i] = !a
	}
	trans := make([][]int, len(d.Trans))
	for i, row := range d.Trans {
		trans[i] = slices.Clone(row)
	}
	return &DFA{Alphabet: slices.Clone(d.Alphabet), Trans: trans, Accepts: acc}
}

// Determinize is the subset construction of a zero-register automaton over
// alphabet ∪ {Other}. Its subsets are sets of the live states of the
// letter-step form Finish builds for the kernel, and a step's target set is
// the pruned ε-closure that form stores, so no ε-move is followed here. The
// empty subset is the dead state. It panics on an automaton with registers,
// whose conditions no DFA can express.
func (a *Automaton) Determinize(alphabet []string) *DFA {
	z := a.zero
	if z == nil {
		panic("ra: Determinize needs a zero-register automaton")
	}
	alpha := slices.Clone(alphabet)
	slices.Sort(alpha)
	alpha = slices.Compact(alpha)
	d := &DFA{Alphabet: alpha}
	cols := len(alpha) + 1
	numLive := len(z.first) - 1
	// A subset is a bit per live state; its bytes are its key.
	set := make([]byte, (numLive+7)/8)
	has := func(set string, s int) bool { return set[s>>3]&(1<<(s&7)) != 0 }
	ids := map[string]int{}
	var sets []string
	intern := func() int {
		if id, ok := ids[string(set)]; ok {
			return id
		}
		key := string(set)
		ids[key] = len(sets)
		sets = append(sets, key)
		d.Trans = append(d.Trans, make([]int, cols))
		d.Accepts = append(d.Accepts, has(key, int(z.accept)))
		return len(sets) - 1
	}
	for _, s := range z.start {
		set[s>>3] |= 1 << (s & 7)
	}
	intern()
	for i := 0; i < len(sets); i++ {
		for c := range cols {
			clear(set)
			for s := range numLive {
				if !has(sets[i], s) {
					continue
				}
				for j := z.first[s]; j < z.first[s+1]; j++ {
					st := &z.steps[j]
					if st.any || c < len(alpha) && st.label == alpha[c] {
						for _, t := range z.closureOf(st) {
							set[t>>3] |= 1 << (t & 7)
						}
					}
				}
			}
			next := intern()
			d.Trans[i][c] = next
		}
	}
	return d
}
