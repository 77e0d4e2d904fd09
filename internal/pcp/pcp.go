// Package pcp implements the Post Correspondence Problem machinery behind
// the paper's undecidability results: Theorem 1 (query answering for data
// RPQs under LAV/GAV relational/reachability mappings) and Theorem 6 /
// Lemma 2 (GXPath under copy mappings).
//
// Undecidability itself cannot be executed; what can be executed — and is
// tested both ways on decidable sub-instances — is the reduction machinery:
// the source-graph gadget of Theorem 1 (built exactly as in the paper's
// figure), the LAV/GAV relational/reachability mapping, the witness target
// containing the encoding of a PCP solution, and the error-detecting
// queries reconstructed from the proof sketch (a navigational shape check
// via DFA complement, plus REE data checks: repeated verification values,
// reverse-copy adjacency, letter mismatches).
package pcp

import (
	"fmt"
	"strings"
)

// Tile is one pair (uᵣ, vᵣ) of nonempty words over {a, b}.
type Tile struct {
	U, V string
}

// Instance is a PCP instance: a finite list of tiles.
type Instance struct {
	Tiles []Tile
}

// Validate checks that all tiles are nonempty words over {a, b}.
func (in Instance) Validate() error {
	if len(in.Tiles) == 0 {
		return fmt.Errorf("pcp: instance has no tiles")
	}
	for i, t := range in.Tiles {
		if t.U == "" || t.V == "" {
			return fmt.Errorf("pcp: tile %d has an empty word", i+1)
		}
		for _, w := range []string{t.U, t.V} {
			for _, r := range w {
				if r != 'a' && r != 'b' {
					return fmt.Errorf("pcp: tile %d uses letter %q outside {a,b}", i+1, r)
				}
			}
		}
	}
	return nil
}

// Apply concatenates the tile words along the index sequence.
func (in Instance) Apply(seq []int) (u, v string, err error) {
	var ub, vb strings.Builder
	for _, r := range seq {
		if r < 1 || r > len(in.Tiles) {
			return "", "", fmt.Errorf("pcp: tile index %d out of range", r)
		}
		ub.WriteString(in.Tiles[r-1].U)
		vb.WriteString(in.Tiles[r-1].V)
	}
	return ub.String(), vb.String(), nil
}

// IsSolution reports whether the sequence of (1-based) tile indices is a
// PCP solution.
func (in Instance) IsSolution(seq []int) bool {
	if len(seq) == 0 {
		return false
	}
	u, v, err := in.Apply(seq)
	return err == nil && u == v
}

// Solve searches for a solution of length at most maxLen by BFS over
// prefix-difference states. It returns a shortest solution if one exists
// within the bound. (PCP is undecidable; the bound makes this a
// semi-decision procedure, which is all a reproduction can offer.)
func (in Instance) Solve(maxLen int) ([]int, bool) {
	if err := in.Validate(); err != nil {
		return nil, false
	}
	// State: the outstanding difference between the u-concatenation and the
	// v-concatenation. diff > 0 conventions: remainder is stored with a
	// side marker. sideU means u is longer: remainder of u not yet matched.
	type state struct {
		rem   string
		uLong bool
	}
	type entry struct {
		st  state
		seq []int
	}
	start := state{rem: "", uLong: true}
	visited := map[state]struct{}{}
	queue := []entry{{st: start}}
	for len(queue) > 0 {
		e := queue[0]
		queue = queue[1:]
		if len(e.seq) >= maxLen {
			continue
		}
		for r := 1; r <= len(in.Tiles); r++ {
			t := in.Tiles[r-1]
			var u, v string
			if e.st.uLong {
				u = e.st.rem + t.U
				v = t.V
			} else {
				u = t.U
				v = e.st.rem + t.V
			}
			// One must be a prefix of the other.
			var ns state
			switch {
			case strings.HasPrefix(u, v):
				ns = state{rem: u[len(v):], uLong: true}
			case strings.HasPrefix(v, u):
				ns = state{rem: v[len(u):], uLong: false}
			default:
				continue
			}
			seq := append(append([]int(nil), e.seq...), r)
			if ns.rem == "" {
				return seq, true
			}
			if _, dup := visited[ns]; dup {
				continue
			}
			visited[ns] = struct{}{}
			queue = append(queue, entry{st: ns, seq: seq})
		}
	}
	return nil, false
}

// Sequences enumerates all index sequences of length 1..maxLen, calling f
// for each; used by the exhaustive reduction tests on tiny instances.
func (in Instance) Sequences(maxLen int, f func(seq []int) bool) {
	var rec func(seq []int) bool
	rec = func(seq []int) bool {
		if len(seq) > 0 {
			if !f(seq) {
				return false
			}
		}
		if len(seq) == maxLen {
			return true
		}
		for r := 1; r <= len(in.Tiles); r++ {
			if !rec(append(seq, r)) {
				return false
			}
		}
		return true
	}
	rec(nil)
}

func (in Instance) String() string {
	parts := make([]string, len(in.Tiles))
	for i, t := range in.Tiles {
		parts[i] = fmt.Sprintf("(%s,%s)", t.U, t.V)
	}
	return strings.Join(parts, " ")
}
