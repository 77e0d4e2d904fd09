package ra

import (
	"fmt"
	"strings"

	"repro/internal/datagraph"
)

// The kernel is checked against an oracle that shares no code with it: a
// search over configurations whose registers hold data values, compared
// with the CompareMode methods and deduplicated by a formatted string key,
// reading the graph only through g.Edges() and g.Value.

// holds is the two-valued condition semantics over data values: σ, d ⊨ c,
// with comparisons against unset registers false.
func holds(c Cond, regs []datagraph.Value, set []bool, d datagraph.Value, mode datagraph.CompareMode) bool {
	switch t := c.(type) {
	case True:
		return true
	case Eq:
		return set[t.Reg] && mode.Eq(regs[t.Reg], d)
	case Neq:
		return set[t.Reg] && mode.Neq(regs[t.Reg], d)
	case And:
		return holds(t.L, regs, set, d, mode) && holds(t.R, regs, set, d, mode)
	case Or:
		return holds(t.L, regs, set, d, mode) || holds(t.R, regs, set, d, mode)
	}
	panic(fmt.Sprintf("holds: unknown condition %T", c))
}

// oracleCfg is a configuration: a state, a node and the register contents.
type oracleCfg struct {
	state, pos int
	regs       []datagraph.Value
	set        []bool
}

func (c oracleCfg) key() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d.%d.", c.state, c.pos)
	for i, r := range c.regs {
		switch {
		case !c.set[i]:
			sb.WriteString("u|")
		case r.IsNull():
			sb.WriteString("n|")
		default:
			fmt.Fprintf(&sb, "v%d:%s|", len(r.Raw()), r.Raw())
		}
	}
	return sb.String()
}

// fire applies transition t to c, reading the data value d the transition
// tests (the current one for ε, the next one for a letter) and moving to
// position pos; ok is false when the condition fails.
func (c oracleCfg) fire(t Transition, pos int, d datagraph.Value, mode datagraph.CompareMode) (oracleCfg, bool) {
	if !holds(t.Cond, c.regs, c.set, d, mode) {
		return oracleCfg{}, false
	}
	next := oracleCfg{state: t.To, pos: pos, regs: append([]datagraph.Value(nil), c.regs...), set: append([]bool(nil), c.set...)}
	for _, r := range t.Store {
		next.regs[r], next.set[r] = d, true
	}
	return next, true
}

// oracleEval is Eval by the oracle.
func oracleEval(a *Automaton, g *datagraph.Graph, mode datagraph.CompareMode) *datagraph.PairSet {
	type edge struct {
		label string
		to    int
	}
	out := make([][]edge, g.NumNodes())
	for _, e := range g.Edges() {
		from, _ := g.IndexOf(e.From)
		to, _ := g.IndexOf(e.To)
		out[from] = append(out[from], edge{e.Label, to})
	}
	pairs := datagraph.NewPairSet()
	for u := 0; u < g.NumNodes(); u++ {
		start := oracleCfg{state: a.Start, pos: u, regs: make([]datagraph.Value, a.NumRegs), set: make([]bool, a.NumRegs)}
		seen := map[string]bool{start.key(): true}
		queue := []oracleCfg{start}
		push := func(n oracleCfg, ok bool) {
			if !ok {
				return
			}
			if k := n.key(); !seen[k] {
				seen[k] = true
				queue = append(queue, n)
			}
		}
		for len(queue) > 0 {
			c := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			if c.state == a.Accept {
				pairs.Add(u, c.pos)
			}
			for _, t := range a.Trans[c.state] {
				if t.Eps {
					push(c.fire(t, c.pos, g.Value(c.pos), mode))
					continue
				}
				for _, e := range out[c.pos] {
					if t.AnyLabel || e.label == t.Label {
						push(c.fire(t, e.to, g.Value(e.to), mode))
					}
				}
			}
		}
	}
	return pairs
}

// oracleMatch is MatchDataPath by the oracle, on the path as a graph.
func oracleMatch(a *Automaton, w datagraph.DataPath, mode datagraph.CompareMode) bool {
	g := datagraph.New()
	for i, v := range w.Values {
		g.MustAddNode(datagraph.NodeID(fmt.Sprint(i)), v)
	}
	for i, l := range w.Labels {
		g.MustAddEdge(datagraph.NodeID(fmt.Sprint(i)), l, datagraph.NodeID(fmt.Sprint(i+1)))
	}
	return oracleEval(a, g, mode).Has(0, len(w.Labels))
}
