package datagraph

import (
	"fmt"
	"strings"
)

// Path is a path π = v₁a₁v₂…vₙaₙvₙ₊₁ in a data graph: an alternating
// sequence of node indices and labels. Nodes has one more entry than Labels.
type Path struct {
	Nodes  []int
	Labels []string
}

// Len returns |π|, the number of edges (equivalently, the length of λ(π)).
func (p Path) Len() int { return len(p.Labels) }

// Label returns λ(π), the word a₁…aₙ.
func (p Path) Label() []string { return p.Labels }

// Validate checks that the path's structure is consistent, that every node
// index lies in [0, NumNodes()) and that each step is an edge of g.
func (p Path) Validate(g *Graph) error {
	if len(p.Nodes) != len(p.Labels)+1 {
		return fmt.Errorf("datagraph: path has %d nodes and %d labels", len(p.Nodes), len(p.Labels))
	}
	for i, u := range p.Nodes {
		if u < 0 || u >= g.NumNodes() {
			return fmt.Errorf("datagraph: path node %d: index %d outside [0, %d)", i, u, g.NumNodes())
		}
	}
	s := g.Freeze()
	for i, lab := range p.Labels {
		if l, ok := s.LabelID(lab); !ok || !s.HasEdge(p.Nodes[i], l, p.Nodes[i+1]) {
			return fmt.Errorf("datagraph: path step %d: no edge %s -%s-> %s",
				i, g.Node(p.Nodes[i]).ID, lab, g.Node(p.Nodes[i+1]).ID)
		}
	}
	return nil
}

// DataPath is a data path d₁a₁d₂…dₙaₙdₙ₊₁: an alternating sequence of data
// values and labels, with one more value than labels (Section 2).
type DataPath struct {
	Values []Value
	Labels []string
}

// DataPathOf returns δ(π): the data path obtained from a graph path by
// replacing each node with its data value.
func DataPathOf(g *Graph, p Path) DataPath {
	vals := make([]Value, len(p.Nodes))
	for i, n := range p.Nodes {
		vals[i] = g.Value(n)
	}
	labs := make([]string, len(p.Labels))
	copy(labs, p.Labels)
	return DataPath{Values: vals, Labels: labs}
}

// NewDataPath builds a data path from interleaved values and labels. It
// panics unless len(values) == len(labels)+1 and len(values) ≥ 1.
func NewDataPath(values []Value, labels []string) DataPath {
	if len(values) != len(labels)+1 || len(values) == 0 {
		panic(fmt.Sprintf("datagraph: malformed data path: %d values, %d labels", len(values), len(labels)))
	}
	return DataPath{Values: values, Labels: labels}
}

// Len returns the number of labels.
func (w DataPath) Len() int { return len(w.Labels) }

// First returns the first data value d₁.
func (w DataPath) First() Value { return w.Values[0] }

// Last returns the last data value dₙ₊₁.
func (w DataPath) Last() Value { return w.Values[len(w.Values)-1] }

// Concat returns w·w′, defined when the last value of w equals the first
// value of w′ (Section 3). The shared value appears once in the result.
func (w DataPath) Concat(x DataPath) (DataPath, error) {
	if w.Last() != x.First() {
		return DataPath{}, fmt.Errorf("datagraph: cannot concatenate data paths: %s vs %s", w.Last(), x.First())
	}
	values := make([]Value, 0, len(w.Values)+len(x.Values)-1)
	values = append(values, w.Values...)
	values = append(values, x.Values[1:]...)
	labels := make([]string, 0, len(w.Labels)+len(x.Labels))
	labels = append(labels, w.Labels...)
	labels = append(labels, x.Labels...)
	return DataPath{Values: values, Labels: labels}, nil
}

// String renders the data path as d1 a1 d2 … an dn+1.
func (w DataPath) String() string {
	var b strings.Builder
	for i, v := range w.Values {
		if i > 0 {
			fmt.Fprintf(&b, " %s ", w.Labels[i-1])
		}
		b.WriteString(v.String())
	}
	return b.String()
}
