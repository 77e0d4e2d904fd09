package pcp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/datagraph"
)

// This file builds the Theorem 1 gadget: the source data graph encoding a
// PCP instance, the LAV/GAV relational/reachability mapping, and the
// single-path witness target encoding a PCP solution.
//
// Alphabet (both source and target): {a, b, i, t, m, mbar, id, s, v, sep, #}
// where mbar renders the paper's m̄ and sep renders ↔ (kept ASCII for the
// CLI formats; the parsers accept ↔ too, but the gadget sticks to ASCII).

// Gadget labels.
const (
	LabelInput  = "i"
	LabelTile   = "t"
	LabelMark   = "m"
	LabelMbar   = "mbar"
	LabelID     = "id"
	LabelSol    = "s"
	LabelVerify = "v"
	LabelSep    = "sep" // the paper's ↔
	LabelHash   = "#"
)

// Alphabet returns the gadget's full label alphabet.
func Alphabet() []string {
	return []string{"a", "b", LabelInput, LabelTile, LabelMark, LabelMbar,
		LabelID, LabelSol, LabelVerify, LabelSep, LabelHash}
}

// Gadget bundles the Theorem 1 reduction artefacts for one PCP instance.
type Gadget struct {
	Instance Instance
	Source   *datagraph.Graph
	Start    datagraph.NodeID
	End      datagraph.NodeID
	Mapping  *core.Mapping
}

// BuildGadget constructs the source database of the Theorem 1 figure: a
// single chain
//
//	start -i→ · ( -t→ · -u¹ᵣ→ · … -sep→ · -v¹ᵣ→ … )ᵣ₌₁..ₙ -s→ · -#→ end
//
// with pairwise distinct data values, together with the LAV/GAV
// relational/reachability mapping {(ℓ,ℓ) | ℓ ∈ {a,b,t,i,s,sep}} ∪ {(#, Σ*)}.
func BuildGadget(in Instance) (*Gadget, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	g := datagraph.New()
	val := 0
	freshValue := func() datagraph.Value {
		val++
		return datagraph.V(fmt.Sprintf("src%d", val))
	}
	node := 0
	addNode := func() datagraph.NodeID {
		node++
		id := datagraph.NodeID(fmt.Sprintf("g%d", node))
		g.MustAddNode(id, freshValue())
		return id
	}
	start := datagraph.NodeID("start")
	g.MustAddNode(start, freshValue())
	cur := addNode()
	g.MustAddEdge(start, LabelInput, cur)
	step := func(label string) {
		next := addNode()
		g.MustAddEdge(cur, label, next)
		cur = next
	}
	for _, tile := range in.Tiles {
		step(LabelTile)
		for _, letter := range tile.U {
			step(string(letter))
		}
		step(LabelSep)
		for _, letter := range tile.V {
			step(string(letter))
		}
	}
	step(LabelSol)
	end := datagraph.NodeID("end")
	g.MustAddNode(end, freshValue())
	g.MustAddEdge(cur, LabelHash, end)

	m := core.NewMapping(
		core.R("a", "a"),
		core.R("b", "b"),
		core.R(LabelTile, LabelTile),
		core.R(LabelInput, LabelInput),
		core.R(LabelSol, LabelSol),
		core.R(LabelSep, LabelSep),
		core.R(LabelHash, ".*"),
	)
	return &Gadget{Instance: in, Source: g, Start: start, End: end, Mapping: m}, nil
}

// BuildWitness constructs the single-path target encoding a candidate
// solution sequence (1-based tile indices), mirroring the paper's π_r
// blocks:
//
//   - every non-# source edge is copied;
//   - in place of the # edge, a path from the pre-# node to end carrying,
//     for each tile r of the sequence, the block
//     tⁿ⁻ʳ m (v-letter · id)^{|vᵣ|, reversed} sep (u-letter · id)^{|uᵣ|,
//     reversed} mbar tʳ⁻¹ s, followed by a final v separator and the
//     verification section spelling u_{r₁}···u_{rₘ};
//   - values after each id edge copy the verification values; all other
//     inserted values are fresh and pairwise distinct.
//
// Blocks are emitted in *reverse* sequence order and each side is reversed
// within its block, so both the u-copy stream and the v-copy stream spell
// the verification values in globally reversed order. This makes every
// consecutive same-stream copy pair verification-adjacent, which is what
// lets the adjacency detector express the reverse-copy property with
// *nested* (hence REE-expressible) equality tests — crossing tests are
// exactly what REE cannot do. The paper's proof sketch only says the copies
// appear "in the reverse order"; this layout is our documented
// reconstruction of that discipline.
//
// The sequence need not be a genuine solution — the detector tests rely on
// building witnesses for wrong sequences too. BuildWitness errors only if
// indices are out of range.
func (gd *Gadget) BuildWitness(seq []int) (*datagraph.Graph, error) {
	in := gd.Instance
	uWord, _, err := in.Apply(seq)
	if err != nil {
		return nil, err
	}
	n := len(in.Tiles)

	gt := datagraph.New()
	for _, nd := range gd.Source.Nodes() {
		gt.MustAddNode(nd.ID, nd.Value)
	}
	var preHash datagraph.NodeID
	for _, e := range gd.Source.Edges() {
		if e.Label == LabelHash {
			preHash = e.From
			continue
		}
		gt.MustAddEdge(e.From, e.Label, e.To)
	}

	// Verification values: one per letter of the u-concatenation, all
	// fresh, with the final position landing on the end node (whose source
	// value is distinct from everything else by construction).
	K := len(uWord)
	verValues := make([]datagraph.Value, K+1)
	fresh := 0
	freshValue := func() datagraph.Value {
		fresh++
		return datagraph.V(fmt.Sprintf("wit%d", fresh))
	}
	for k := 0; k <= K; k++ {
		verValues[k] = freshValue()
	}
	endNode, _ := gt.NodeByID(gd.End)
	verValues[K] = endNode.Value

	nodeN := 0
	cur := preHash
	addStep := func(label string, value datagraph.Value) datagraph.NodeID {
		nodeN++
		id := datagraph.NodeID(fmt.Sprintf("w%d", nodeN))
		gt.MustAddNode(id, value)
		gt.MustAddEdge(cur, label, id)
		cur = id
		return id
	}

	// Cumulative letter positions at the start of each solution-order
	// block: uStart[p] = |u_{r₁}···u_{rₚ}| consumed before block p+1.
	m := len(seq)
	uStart := make([]int, m+1)
	vStart := make([]int, m+1)
	for p, r := range seq {
		uStart[p+1] = uStart[p] + len(in.Tiles[r-1].U)
		vStart[p+1] = vStart[p] + len(in.Tiles[r-1].V)
	}
	// Emit blocks in reverse solution order (see doc comment).
	for q := m - 1; q >= 0; q-- {
		r := seq[q]
		tile := in.Tiles[r-1]
		uPos, vPos := uStart[q], vStart[q]
		for i := 0; i < n-r; i++ {
			addStep(LabelTile, freshValue())
		}
		addStep(LabelMark, freshValue())
		// v-side, reversed: copy values reference the v-side verification
		// positions vPos+|v| … vPos+1 (the verification section spells the
		// u-concatenation; for genuine solutions the two coincide).
		for j := len(tile.V) - 1; j >= 0; j-- {
			addStep(string(tile.V[j]), freshValue())
			pos := vPos + j + 1
			copyVal := freshValue()
			if pos <= K {
				copyVal = verValues[pos]
			}
			addStep(LabelID, copyVal)
		}
		addStep(LabelSep, freshValue())
		// u-side, reversed.
		for j := len(tile.U) - 1; j >= 0; j-- {
			addStep(string(tile.U[j]), freshValue())
			pos := uPos + j + 1
			copyVal := freshValue()
			if pos <= K {
				copyVal = verValues[pos]
			}
			addStep(LabelID, copyVal)
		}
		addStep(LabelMbar, freshValue())
		for i := 0; i < r-1; i++ {
			addStep(LabelTile, freshValue())
		}
		addStep(LabelSol, freshValue())
	}
	// Verification section.
	addStep(LabelVerify, verValues[0])
	for k := 1; k < K; k++ {
		addStep(string(uWord[k-1]), verValues[k])
	}
	// Final letter lands on end.
	gt.MustAddEdge(cur, string(uWord[K-1]), gd.End)
	return gt, nil
}
