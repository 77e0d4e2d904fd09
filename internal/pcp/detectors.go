package pcp

import (
	"fmt"
	"strings"

	"repro/internal/datagraph"
	"repro/internal/ree"
	"repro/internal/rex"
)

// This file reconstructs the error-detecting query Q of Theorem 1 from the
// proof sketch. Q is a disjunction: a navigational shape check (an ordinary
// regular expression, realised as the complement of the expected shape via
// our DFA substrate) plus REE data detectors. (start, end) is *not* a
// certain answer iff some solution avoids every disjunct — for satisfiable
// PCP instances the witness built by BuildWitness is such a solution.
//
// Detector inventory:
//
//	shape    — the start→end path deviates from
//	           W_src · (Σᵣ BLOCKᵣ · s)⁺ · v · (a|b)⁺, with per-tile exact
//	           block patterns (this also subsumes tile-validity errors);
//	repeat   — two equal data values inside the verification section
//	           (the paper: "pairwise distinct data values" after v);
//	adjacent — two consecutive same-stream id-copies that are not adjacent
//	           (in reverse) in the verification section;
//	letter   — an id-copy whose unit letter differs from the letter at its
//	           verification occurrence (the paper's "mismatch" detector);
//	anchor-u — the last u-side copy is not the first verification value;
//	anchor-v — the last v-side copy is not the first verification value;
//	start-u  — the first u-side copy is not the last verification value
//	           (instance-specific: anchored on the exact source prefix);
//	start-v  — likewise for the first v-side copy.
//
// Together: the start anchors pin each copy stream to ver[K], the end
// anchors to ver[1], the adjacency detector forces each consecutive pair to
// descend by exactly one verification position, and the repeat detector
// makes verification values pairwise distinct — so an error-free target
// spells both streams as ver[K..1], forcing equal u- and v-concatenations,
// while the letter detectors force the spelled letters to agree. An
// error-free single-path target therefore decodes to a genuine PCP
// solution.
type Detector struct {
	Name string
	// Query is nil for the navigational shape detector, which is evaluated
	// through the complement DFA instead.
	Query *ree.Query
}

// letterAlt is (a|b) in concrete syntax.
const letterAlt = "(a|b)"

// unitAlt is one side unit ((a|b) id).
const unitAlt = "((a|b) id)"

// DataDetectors returns the REE error detectors.
func DataDetectors() []Detector {
	bridgeU := "mbar t* s t* m " + unitAlt + "* sep"
	bridgeV := "sep " + unitAlt + "* mbar t* s t* m"
	return []Detector{
		{
			Name:  "repeat",
			Query: ree.MustParseQuery(".* v .* (.+)= .*"),
		},
		{
			Name: "adjacent",
			Query: ree.MustParseQuery(fmt.Sprintf(
				".* id ((()|%s|%s) %s id (.* v .*)= %s)!= .*",
				bridgeU, bridgeV, letterAlt, letterAlt)),
		},
		{
			Name:  "letter-ab",
			Query: ree.MustParseQuery(".* a id (.* v .* b)= .*"),
		},
		{
			Name:  "letter-ba",
			Query: ree.MustParseQuery(".* b id (.* v .* a)= .*"),
		},
		{
			Name:  "anchor-u",
			Query: ree.MustParseQuery(".* " + letterAlt + " id (mbar t* s v " + letterAlt + ")!= .*"),
		},
		{
			Name: "anchor-v",
			Query: ree.MustParseQuery(
				".* " + letterAlt + " id (sep " + unitAlt + "* mbar t* s v " + letterAlt + ")!= .*"),
		},
	}
}

// sourcePrefixExpr renders the exact source-prefix word
// i (t u_r sep v_r)_{r=1..n} s in concrete syntax.
func (gd *Gadget) sourcePrefixExpr() string {
	var b strings.Builder
	b.WriteString("i ")
	for _, tile := range gd.Instance.Tiles {
		b.WriteString("t ")
		for _, l := range tile.U {
			b.WriteString(string(l) + " ")
		}
		b.WriteString("sep ")
		for _, l := range tile.V {
			b.WriteString(string(l) + " ")
		}
	}
	b.WriteString("s")
	return b.String()
}

// StartAnchors returns the instance-specific start-anchor detectors: the
// first copy of each stream (which lies in the first inserted block, right
// after the exact source prefix) must carry the last verification value,
// i.e. the data value of the end node.
func (gd *Gadget) StartAnchors() []Detector {
	prefix := gd.sourcePrefixExpr()
	return []Detector{
		{
			Name:  "start-v",
			Query: ree.MustParseQuery(prefix + " t* m " + letterAlt + " id (.*)!="),
		},
		{
			Name: "start-u",
			Query: ree.MustParseQuery(
				prefix + " t* m " + unitAlt + "* sep " + letterAlt + " id (.*)!="),
		},
	}
}

// ShapeRegex returns the expected shape of the full start→end path for this
// instance: the exact source-prefix word, one or more per-tile blocks each
// followed by s, then the verification section.
func (gd *Gadget) ShapeRegex() rex.Regex {
	var b strings.Builder
	b.WriteString(gd.sourcePrefixExpr())
	b.WriteString(" ")
	// Blocks: union over tiles of the exact reversed pattern.
	var blocks []string
	n := len(gd.Instance.Tiles)
	for r := 1; r <= n; r++ {
		tile := gd.Instance.Tiles[r-1]
		var blk strings.Builder
		for i := 0; i < n-r; i++ {
			blk.WriteString("t ")
		}
		blk.WriteString("m ")
		for j := len(tile.V) - 1; j >= 0; j-- {
			blk.WriteString(string(tile.V[j]) + " id ")
		}
		blk.WriteString("sep ")
		for j := len(tile.U) - 1; j >= 0; j-- {
			blk.WriteString(string(tile.U[j]) + " id ")
		}
		blk.WriteString("mbar ")
		for i := 0; i < r-1; i++ {
			blk.WriteString("t ")
		}
		blocks = append(blocks, strings.TrimSpace(blk.String()))
	}
	fmt.Fprintf(&b, "((%s) s)+ v (a|b)+", strings.Join(blocks, "|"))
	return rex.MustParse(b.String())
}

// ShapeErrorHolds reports whether some path from `from` to `to` deviates
// from the expected shape: it runs the complement DFA of ShapeRegex over
// the product with the graph.
func (gd *Gadget) ShapeErrorHolds(gt *datagraph.Graph, from, to datagraph.NodeID) (bool, error) {
	fi, ok := gt.IndexOf(from)
	if !ok {
		return false, fmt.Errorf("pcp: node %s not in target", from)
	}
	ti, ok := gt.IndexOf(to)
	if !ok {
		return false, fmt.Errorf("pcp: node %s not in target", to)
	}
	dfa := rex.Compile(gd.ShapeRegex()).Determinize(Alphabet()).Complement()
	snap := gt.Freeze()
	// Product BFS: (node, dfa state).
	type cfg struct{ node, state int }
	start := cfg{fi, 0}
	seen := map[cfg]struct{}{start: {}}
	queue := []cfg{start}
	for len(queue) > 0 {
		c := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if c.node == ti && dfa.Accepts[c.state] {
			return true, nil
		}
		snap.EachOut(c.node, func(l datagraph.Label, to int32) {
			nx := cfg{int(to), dfa.Trans[c.state][dfa.Column(snap.LabelName(l))]}
			if _, dup := seen[nx]; !dup {
				seen[nx] = struct{}{}
				queue = append(queue, nx)
			}
		})
	}
	return false, nil
}

// CertainOnGadget is the bounded semi-decision procedure for the gadget
// family: it decides whether (start, end) behaves as a certain answer of
// the error-detecting query by searching candidate solution sequences up to
// maxSeqLen. If some candidate's witness target avoids every detector, the
// pair is not certain and the witness is returned; otherwise the pair is
// certain within the bound. Theorem 1 says no bound works for every
// instance — this is exactly the decidable slice the experiments exercise,
// and by the detector completeness argument (see the Detector comment) a
// clean witness exists iff the instance has a solution of length ≤ maxSeqLen.
func (gd *Gadget) CertainOnGadget(maxSeqLen int) (certain bool, witness *datagraph.Graph, err error) {
	found := false
	var wit *datagraph.Graph
	var innerErr error
	gd.Instance.Sequences(maxSeqLen, func(seq []int) bool {
		w, e := gd.BuildWitness(seq)
		if e != nil {
			innerErr = e
			return false
		}
		fired, e := gd.Errors(w)
		if e != nil {
			innerErr = e
			return false
		}
		if len(fired) == 0 {
			found = true
			wit = w
			return false
		}
		return true
	})
	if innerErr != nil {
		return false, nil, innerErr
	}
	if found {
		return false, wit, nil
	}
	return true, nil, nil
}

// Errors evaluates every detector on the target for the pair
// (start, end) and returns the names of those that fire. An empty result
// means the target is an error-free encoding, i.e. it witnesses
// (start, end) ∉ 2_M(Q, Gs).
func (gd *Gadget) Errors(gt *datagraph.Graph) ([]string, error) {
	var fired []string
	shape, err := gd.ShapeErrorHolds(gt, gd.Start, gd.End)
	if err != nil {
		return nil, err
	}
	if shape {
		fired = append(fired, "shape")
	}
	si, ok := gt.IndexOf(gd.Start)
	if !ok {
		return nil, fmt.Errorf("pcp: start missing from target")
	}
	ei, ok := gt.IndexOf(gd.End)
	if !ok {
		return nil, fmt.Errorf("pcp: end missing from target")
	}
	detectors := append(DataDetectors(), gd.StartAnchors()...)
	for _, d := range detectors {
		for _, v := range d.Query.EvalFrom(gt, si, datagraph.MarkedNulls) {
			if v == ei {
				fired = append(fired, d.Name)
				break
			}
		}
	}
	return fired, nil
}
