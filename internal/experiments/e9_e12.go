package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/datagraph"
	"repro/internal/gxpath"
	"repro/internal/pcp"
	"repro/internal/ree"
	"repro/internal/relational"
	"repro/internal/rem"
	"repro/internal/workload"
)

// E9Relational validates Proposition 1: the graph-level and relational-level
// views agree on solutionhood across random mappings, solutions and
// mutations.
func E9Relational(quick bool) (Table, error) {
	ctx := context.TODO()
	t := Table{
		ID:     "E9",
		Title:  "relational encoding M_rel",
		Claim:  "Prop 1: solutions under M_rel are exactly the D_Gt for solutions Gt",
		Header: []string{"seed", "rules", "targets-checked", "views-agree"},
	}
	samples := 20
	if quick {
		samples = 6
	}
	for seed := int64(0); seed < int64(samples); seed++ {
		gs := workload.RandomGraph(workload.GraphSpec{
			Nodes: 6, Edges: 9, Labels: []string{"a", "b"}, Values: 4, Seed: seed,
		})
		m := workload.RandomRelationalMapping(workload.MappingSpec{
			SourceLabels: []string{"a", "b"}, TargetLabels: []string{"p", "q", "r"},
			Rules: 3, MaxWordLen: 3, Seed: seed,
		})
		mr, err := relational.Encode(m)
		if err != nil {
			return t, err
		}
		u, err := core.NewMaterialization(core.MustCompile(m), gs).UniversalCtx(ctx)
		if err != nil {
			return t, err
		}
		ds := relational.FromGraph(gs)
		agree := true
		checked := 0
		// The solution itself plus every single-edge-removed mutant.
		targets := []*datagraph.Graph{u}
		for _, victim := range u.Edges() {
			mutant := datagraph.New()
			for _, nd := range u.Nodes() {
				mutant.MustAddNode(nd.ID, nd.Value)
			}
			for _, e := range u.Edges() {
				if e != victim {
					mutant.MustAddEdge(e.From, e.Label, e.To)
				}
			}
			targets = append(targets, mutant)
		}
		for _, gt := range targets {
			graphView := m.Satisfies(gs, gt)
			relView, _ := mr.Satisfied(ds, relational.FromGraph(gt))
			checked++
			if graphView != relView {
				agree = false
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(seed), fmt.Sprint(len(m.Rules)), fmt.Sprint(checked), fmt.Sprint(agree),
		})
	}
	return t, nil
}

// E10GXPathGadget reports the Theorem 6 tree-gadget statistics and runs the
// bounded avoiding-supergraph search of Lemma 2.
func E10GXPathGadget(quick bool) (Table, error) {
	t := Table{
		ID:     "E10",
		Title:  "GXPath undecidability gadget",
		Claim:  "Thm 6: certain answering of GXPath-core~ undecidable under copy mappings",
		Header: []string{"instance", "tree-nodes", "non-repeating", "copy-mapping", "phi", "avoidable≤bound"},
	}
	instances := []struct {
		name string
		in   pcp.Instance
	}{
		{"2-tile", pcp.Instance{Tiles: []pcp.Tile{{U: "a", V: "ab"}, {U: "ba", V: "a"}}}},
		{"1-tile", pcp.Instance{Tiles: []pcp.Tile{{U: "a", V: "b"}}}},
	}
	for _, inst := range instances {
		tg, err := pcp.BuildTreeGadget(inst.in)
		if err != nil {
			return t, err
		}
		cls := "LAV+GAV+rel"
		if !tg.Mapping.IsLAV() || !tg.Mapping.IsGAV() || !tg.Mapping.IsRelational() {
			cls = "WRONG"
		}
		// φ = ¬⟨x⟩ for a fresh label: avoidable by adding one x-edge.
		phi := gxpath.MustParseNode("!<x>")
		_, avoidable := pcp.ExistsAvoidingSupergraph(tg.Tree, tg.Root, phi,
			pcp.SupergraphSearchOptions{MaxNewNodes: 0, MaxNewEdges: 1, Labels: []string{"x"},
				MaxCandidates: 50000})
		t.Rows = append(t.Rows, []string{
			inst.name, fmt.Sprint(tg.Tree.NumNodes()),
			fmt.Sprint(gxpath.HasNonRepeatingProperty(tg.Tree)), cls,
			"!<x>", fmt.Sprint(avoidable),
		})
	}
	_ = quick
	return t, nil
}

// E11StaticAnalysis exercises the Theorem 7 constructions: ϕ_G ∧ ϕ_δ pins
// trees, and the bounded model search solves tiny satisfiability instances.
func E11StaticAnalysis(quick bool) (Table, error) {
	t := Table{
		ID:     "E11",
		Title:  "static analysis: ϕ_G, ϕ_δ, bounded satisfiability",
		Claim:  "Thm 7: satisfiability/containment of GXPath-core~ undecidable; ϕ_G∧ϕ_δ pins G",
		Header: []string{"check", "result", "time"},
	}
	// Pinning on the PCP tree gadget.
	tg, err := pcp.BuildTreeGadget(pcp.Instance{Tiles: []pcp.Tile{{U: "a", V: "b"}}})
	if err != nil {
		return t, err
	}
	pg, err := gxpath.PhiG(tg.Tree, tg.Root)
	if err != nil {
		return t, err
	}
	pd, err := gxpath.PhiDelta(tg.Tree, tg.Root)
	if err != nil {
		return t, err
	}
	start := time.Now()
	pins := gxpath.Satisfies(tg.Tree, tg.Root, gxpath.NAnd{L: pg, R: pd}, datagraph.MarkedNulls)
	t.Rows = append(t.Rows, []string{"G ⊨ ϕ_G∧ϕ_δ at root", fmt.Sprint(pins),
		time.Since(start).Round(time.Microsecond).String()})
	// Merged values violate ϕ_δ.
	nodes := tg.Tree.Nodes()
	merged := tg.Tree.Specialize(map[datagraph.NodeID]datagraph.Value{nodes[1].ID: nodes[2].Value})
	start = time.Now()
	broken := gxpath.Satisfies(merged, tg.Root, pd, datagraph.MarkedNulls)
	t.Rows = append(t.Rows, []string{"merged values ⊨ ϕ_δ (want false)", fmt.Sprint(broken),
		time.Since(start).Round(time.Microsecond).String()})
	// Bounded satisfiability search.
	budget := 300000
	if quick {
		budget = 50000
	}
	for _, c := range []struct {
		formula string
		want    string
	}{
		{"<a=>", "sat"},
		{"<a!=>", "sat"},
		{"<a!=> & !<a>", "unsat≤bound"},
	} {
		start = time.Now()
		_, ok := gxpath.SearchModel(gxpath.MustParseNode(c.formula), 2, []string{"a"}, budget)
		got := "unsat≤bound"
		if ok {
			got = "sat"
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("SearchModel(%s) = %s (want %s)", c.formula, got, c.want),
			fmt.Sprint(got == c.want),
			time.Since(start).Round(time.Microsecond).String(),
		})
	}
	return t, nil
}

// E12Combined contrasts combined complexity: REE evaluation stays polynomial
// in query size while REM (register automata) grows with the register count
// (Pspace-shaped), on a fixed graph. It also ablates the shared RA engine
// against the direct REE matcher.
func E12Combined(quick bool) (Table, error) {
	t := Table{
		ID:     "E12",
		Title:  "combined complexity: REE vs REM, RA vs direct matcher",
		Claim:  "Thm 3: combined complexity Ptime for REE, Pspace for REM",
		Header: []string{"query-class", "size-param", "eval-time", "matchers-agree"},
	}
	g := workload.Chain(60, "a", 5)
	depths := []int{1, 2, 3, 4}
	if quick {
		depths = []int{1, 2}
	}
	// REE: nested equalities of growing depth.
	for _, d := range depths {
		expr := "a"
		for i := 0; i < d; i++ {
			expr = "(" + expr + " a)="
		}
		q := ree.MustParseQuery(expr)
		start := time.Now()
		q.Eval(g, datagraph.MarkedNulls)
		elapsed := time.Since(start)
		// Ablation: RA-based and direct matcher agree on sample paths.
		agree := true
		for l := 0; l <= 6; l++ {
			w := chainDataPath(g, l)
			if q.Match(w, datagraph.MarkedNulls) !=
				ree.MatchDirect(q.Expr(), w, datagraph.MarkedNulls) {
				agree = false
			}
		}
		t.Rows = append(t.Rows, []string{
			"REE nested =", fmt.Sprintf("depth %d", d),
			elapsed.Round(time.Microsecond).String(), fmt.Sprint(agree),
		})
	}
	// REM: growing number of registers.
	for _, k := range depths {
		var sb strings.Builder
		for i := 0; i < k; i++ {
			fmt.Fprintf(&sb, "!x%d.(", i)
		}
		sb.WriteString("a")
		for i := k - 1; i >= 0; i-- {
			fmt.Fprintf(&sb, " (a[x%d=])?)", i)
		}
		q := rem.MustParseQuery(sb.String())
		start := time.Now()
		q.Eval(g, datagraph.MarkedNulls)
		elapsed := time.Since(start)
		t.Rows = append(t.Rows, []string{
			"REM registers", fmt.Sprintf("%d regs", q.Automaton().NumRegs),
			elapsed.Round(time.Microsecond).String(), "-",
		})
	}
	return t, nil
}

func chainDataPath(g *datagraph.Graph, l int) datagraph.DataPath {
	vals := make([]datagraph.Value, l+1)
	labels := make([]string, l)
	for i := 0; i <= l; i++ {
		vals[i] = g.Value(i)
		if i < l {
			labels[i] = "a"
		}
	}
	return datagraph.NewDataPath(vals, labels)
}
