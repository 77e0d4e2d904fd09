package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/datagraph"
	"repro/internal/gxpath"
	"repro/internal/pcp"
	"repro/internal/ree"
	"repro/internal/threecol"
	"repro/internal/workload"
)

// E1GXPath measures GXPath-core evaluation cost over growing random graphs
// and confirms every Figure 1 rule on a fixed fixture (counted, not timed).
func E1GXPath(quick bool) (Table, error) {
	sizes := []int{50, 100, 200, 400, 800}
	if quick {
		sizes = []int{50, 100}
	}
	queries := []struct {
		name string
		q    gxpath.NodeExpr
	}{
		{"<a b>", gxpath.MustParseNode("<a b>")},
		{"<(a b)=>", gxpath.MustParseNode("<(a b)=>")},
		{"<a*> & !<b->", gxpath.MustParseNode("<a*> & !<b->")},
		{"<a (a- b)!= >", gxpath.MustParseNode("<a (a- b)!=>")},
	}
	t := Table{
		ID:     "E1",
		Title:  "GXPath-core evaluation cost",
		Claim:  "Figure 1 semantics; polynomial-time bottom-up evaluation",
		Header: []string{"nodes", "edges", "query", "sat-nodes", "time"},
	}
	for _, n := range sizes {
		g := workload.RandomGraph(workload.GraphSpec{
			Nodes: n, Edges: 3 * n, Labels: []string{"a", "b"}, Values: n / 4, Seed: int64(n),
		})
		for _, qe := range queries {
			start := time.Now()
			sat := gxpath.NodesSatisfying(g, qe.q, datagraph.MarkedNulls)
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(n), fmt.Sprint(g.NumEdges()), qe.name,
				fmt.Sprint(len(sat)), time.Since(start).Round(time.Microsecond).String(),
			})
		}
	}
	t.Notes = append(t.Notes, "every Figure 1 rule is covered by unit tests in internal/gxpath")
	return t, nil
}

// E2PCPGadget builds Theorem 1 gadgets for satisfiable and unsatisfiable
// PCP instances, validates the reduction both ways on bounded sequences,
// and reports gadget sizes.
func E2PCPGadget(quick bool) (Table, error) {
	instances := []struct {
		name string
		in   pcp.Instance
	}{
		{"sat-2tile", pcp.Instance{Tiles: []pcp.Tile{{U: "a", V: "ab"}, {U: "ba", V: "a"}}}},
		{"sat-selfdual", pcp.Instance{Tiles: []pcp.Tile{{U: "a", V: "aa"}, {U: "aa", V: "a"}}}},
		{"unsat-mismatch", pcp.Instance{Tiles: []pcp.Tile{{U: "a", V: "b"}}}},
		{"unsat-longer", pcp.Instance{Tiles: []pcp.Tile{{U: "ab", V: "a"}, {U: "b", V: "bb"}}}},
	}
	maxSeq := 3
	if quick {
		maxSeq = 2
	}
	t := Table{
		ID:     "E2",
		Title:  "Theorem 1 gadget validation",
		Claim:  "LAV/GAV relational/reachability mapping + equality RPQ encode PCP",
		Header: []string{"instance", "src-nodes", "solvable≤8", "witness-clean", "seqs-checked", "clean⇔solution"},
	}
	for _, inst := range instances {
		gd, err := pcp.BuildGadget(inst.in)
		if err != nil {
			return t, err
		}
		seq, solvable := inst.in.Solve(8)
		witnessClean := "n/a"
		if solvable {
			wit, err := gd.BuildWitness(seq)
			if err != nil {
				return t, err
			}
			fired, err := gd.Errors(wit)
			if err != nil {
				return t, err
			}
			witnessClean = fmt.Sprint(len(fired) == 0)
		}
		checked, agree := 0, true
		var seqErr error
		inst.in.Sequences(maxSeq, func(s []int) bool {
			wit, err := gd.BuildWitness(s)
			if err != nil {
				seqErr = err
				return false
			}
			fired, err := gd.Errors(wit)
			if err != nil {
				seqErr = err
				return false
			}
			checked++
			if (len(fired) == 0) != inst.in.IsSolution(s) {
				agree = false
			}
			return true
		})
		if seqErr != nil {
			return t, seqErr
		}
		t.Rows = append(t.Rows, []string{
			inst.name, fmt.Sprint(gd.Source.NumNodes()), fmt.Sprint(solvable),
			witnessClean, fmt.Sprint(checked), fmt.Sprint(agree),
		})
	}
	t.Notes = append(t.Notes,
		"clean⇔solution: a candidate witness avoids all detectors iff it encodes a PCP solution")
	return t, nil
}

// E3ExactCoNP measures the exact certain-answer search cost against the
// number of nulls — the coNP-shaped exponential of Theorem 2.
func E3ExactCoNP(quick bool) (Table, error) {
	ctx := context.TODO()
	t := Table{
		ID:     "E3",
		Title:  "exact certain answers: cost vs null count",
		Claim:  "coNP data complexity (Thm 2); search exponential in nulls",
		Header: []string{"nulls", "specializations", "time", "answers"},
	}
	maxEdges := 5
	if quick {
		maxEdges = 3
	}
	q := ree.MustParseQuery("(p q)!=")
	for edges := 1; edges <= maxEdges; edges++ {
		gs := datagraph.New()
		for i := 0; i <= edges; i++ {
			gs.MustAddNode(datagraph.NodeID(fmt.Sprintf("n%d", i)), datagraph.V(fmt.Sprintf("d%d", i)))
		}
		for i := 0; i < edges; i++ {
			gs.MustAddEdge(datagraph.NodeID(fmt.Sprintf("n%d", i)), "e", datagraph.NodeID(fmt.Sprintf("n%d", i+1)))
		}
		m := core.NewMapping(core.R("e", "p q")) // one null per source edge
		start := time.Now()
		ans, err := core.NewMaterialization(core.MustCompile(m), gs).CertainExact(ctx, q, core.ExactOptions{MaxNulls: edges})
		if err != nil {
			return t, err
		}
		elapsed := time.Since(start)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(edges),
			fmt.Sprint(core.SpecializationCount(edges, edges+1)),
			elapsed.Round(time.Microsecond).String(),
			fmt.Sprint(ans.Len()),
		})
	}
	return t, nil
}

// E4ThreeCol cross-validates the Proposition 3 reduction against the
// brute-force oracle and reports the exponential cost growth.
func E4ThreeCol(quick bool) (Table, error) {
	t := Table{
		ID:     "E4",
		Title:  "3-colorability reduction",
		Claim:  "Prop 3: certain answering coNP-hard for data path queries (3 inequalities)",
		Header: []string{"n", "edges", "3col(brute)", "certain(reduction)", "agree", "time"},
	}
	maxN := 5
	trials := 8
	if quick {
		maxN = 4
		trials = 4
	}
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < trials; trial++ {
		n := 3 + rng.Intn(maxN-2)
		var edges [][2]int
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.7 {
					edges = append(edges, [2]int{i, j})
				}
			}
		}
		g := threecol.Graph{N: n, Edges: edges}
		brute := threecol.ThreeColorable(g)
		start := time.Now()
		certain, err := threecol.CertainNon3Colorable(g, core.ExactOptions{MaxNulls: n + 1})
		if err != nil {
			return t, err
		}
		elapsed := time.Since(start)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), fmt.Sprint(len(edges)), fmt.Sprint(brute), fmt.Sprint(certain),
			fmt.Sprint(certain == !brute), elapsed.Round(time.Millisecond).String(),
		})
	}
	return t, nil
}
