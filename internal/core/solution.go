package core

import (
	"strconv"
	"strings"

	"repro/internal/datagraph"
)

// This file holds the naming helpers of the Section 7 and 8 solutions built
// by Materialization.chase: fresh node ids for the null nodes of universal
// solutions and fresh distinct data values for least informative ones.

// freshPrefix returns base followed by the fewest underscores that make it
// a prefix of key(n) for no node n of g, so that names built on it cannot
// collide with g's ids (key idOf) or values (key rawValueOf). Only a run of
// underscores right after base can push the answer further, so one pass
// measures the longest such run.
func freshPrefix(g *datagraph.Graph, base string, key func(datagraph.Node) string) string {
	longest := -1
	for i := 0; i < g.NumNodes(); i++ {
		if rest, ok := strings.CutPrefix(key(g.Node(i)), base); ok {
			longest = max(longest, len(rest)-len(strings.TrimLeft(rest, "_")))
		}
	}
	return base + strings.Repeat("_", longest+1)
}

func idOf(n datagraph.Node) string { return string(n.ID) }

func rawValueOf(n datagraph.Node) string {
	if n.IsNullNode() {
		return ""
	}
	return n.Value.Raw()
}

// freshValues returns n data values distinct from every value of g and
// from each other.
func freshValues(g *datagraph.Graph, base string, n int) []datagraph.Value {
	out := make([]datagraph.Value, n)
	freshNames(freshPrefix(g, base, rawValueOf), n, func(j int, v string) { out[j] = datagraph.V(v) })
	return out
}

// freshNames cuts the n names prefix1 … prefixN out of one backing string
// and hands name j+1 to set(j, …).
func freshNames(prefix string, n int, set func(j int, name string)) {
	var b strings.Builder
	b.Grow(n * (len(prefix) + len(strconv.Itoa(n))))
	var num [20]byte
	for j := 1; j <= n; j++ {
		b.WriteString(prefix)
		b.Write(strconv.AppendInt(num[:0], int64(j), 10))
	}
	all := b.String()
	for j, at, width, tens := 1, 0, 1, 10; j <= n; j++ {
		if j == tens {
			width, tens = width+1, tens*10
		}
		set(j-1, all[at:at+len(prefix)+width])
		at += len(prefix) + width
	}
}

type solutionStyle int

const (
	solutionNulls solutionStyle = iota
	solutionFresh
)

// NullNodes returns the ids of null nodes in a graph (universal-solution
// intermediates).
func NullNodes(g *datagraph.Graph) []datagraph.NodeID {
	var out []datagraph.NodeID
	for _, n := range g.Nodes() {
		if n.IsNullNode() {
			out = append(out, n.ID)
		}
	}
	return out
}
