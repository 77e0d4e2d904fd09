package repro

// End-to-end integration test: the complete data-exchange pipeline of the
// paper on the property-graph-style social-network workload, crossing every
// subsystem — workload generation, mapping classification, both solution
// styles, all certain-answer algorithms, the relational encoding, and
// conjunctive queries — with the paper's invariants asserted at each stage.

import (
	"context"
	"testing"

	"repro/internal/crpq"
	"repro/internal/datagraph"
	"repro/internal/relational"
	"repro/internal/workload"
)

func TestEndToEndExchangePipeline(t *testing.T) {
	// 1. A property-graph-style source.
	gs := workload.SocialNetwork(12, 6, 2, 2, 42)

	// 2. The mapping: knows → follows·follows (unknown intermediate
	// account), likes → endorses.
	m := NewMapping(R("knows", "follows follows"), R("likes", "endorses"))
	if !m.IsLAV() || !m.IsRelational() {
		t.Fatal("mapping misclassified")
	}

	// 3. Solutions. Both must satisfy the mapping; Lemma 1 homomorphism
	// from the universal into the least informative one.
	ctx := context.Background()
	s, err := NewSession(MustCompile(m), gs)
	if err != nil {
		t.Fatal(err)
	}
	u, err := s.UniversalSolution(ctx)
	if err != nil {
		t.Fatal(err)
	}
	li, err := s.LeastInformativeSolution(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Satisfies(gs, u) || !m.Satisfies(gs, li) {
		t.Fatal("solutions must satisfy the mapping")
	}
	fixed := map[datagraph.NodeID]datagraph.NodeID{}
	for id := range s.mat.DomIDs() {
		fixed[id] = id
	}
	if _, ok := datagraph.FindHomomorphismNulls(u, li, fixed); !ok {
		t.Fatal("Lemma 1 homomorphism missing")
	}

	// 4. Certain answers with every algorithm; containment invariants.
	navigational := MustREE("follows follows")
	withData := MustREE("(follows follows)!=")
	equalityOnly := MustREE("(follows follows)=")

	nullNav, err := s.CertainNull(ctx, navigational)
	if err != nil {
		t.Fatal(err)
	}
	liNav, err := s.CertainLeastInformative(ctx, navigational)
	if err != nil {
		t.Fatal(err)
	}
	// Navigational queries: both tractable algorithms agree (both are
	// exact here).
	if !nullNav.Equal(liNav) {
		t.Fatalf("navigational disagreement: %v vs %v", nullNav, liNav)
	}
	// Every source knows-pair must be a certain follows·follows answer.
	knowsPairs := 0
	for _, e := range gs.Edges() {
		if e.Label == "knows" {
			knowsPairs++
			if !nullNav.Has(e.From, e.To) {
				t.Fatalf("missing certain answer for knows pair %v", e)
			}
		}
	}
	if nullNav.Len() != knowsPairs {
		t.Fatalf("unexpected extra certain answers: %d vs %d", nullNav.Len(), knowsPairs)
	}

	nullData, err := s.CertainNull(ctx, withData)
	if err != nil {
		t.Fatal(err)
	}
	liEq, err := s.CertainLeastInformative(ctx, equalityOnly)
	if err != nil {
		t.Fatal(err)
	}
	// (f f)!= certain exactly for knows-pairs with different ages;
	// (f f)= exactly for same-age pairs; they partition the knows pairs.
	if nullData.Len()+liEq.Len() != knowsPairs {
		t.Fatalf("= / ≠ answers do not partition: %d + %d != %d",
			nullData.Len(), liEq.Len(), knowsPairs)
	}
	for _, a := range nullData.Sorted() {
		if a.From.Value == a.To.Value {
			t.Fatalf("≠ answer with equal values: %v", a)
		}
	}
	for _, a := range liEq.Sorted() {
		if a.From.Value != a.To.Value {
			t.Fatalf("= answer with distinct values: %v", a)
		}
	}

	// 5. One-inequality decision procedure agrees with the null algorithm
	// on this hom-closed query for a sample of pairs.
	for i, a := range nullData.Sorted() {
		if i >= 5 {
			break
		}
		got, err := s.CertainOneInequality(ctx, withData, a.From.ID, a.To.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !got {
			t.Fatalf("one-inequality algorithm missed %v", a)
		}
	}

	// 6. Relational view agrees that both solutions are solutions.
	mr, err := relational.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	ds := relational.FromGraph(gs)
	for name, sol := range map[string]*Graph{"universal": u, "least-informative": li} {
		if ok, why := mr.Satisfied(ds, relational.FromGraph(sol)); !ok {
			t.Fatalf("relational view rejects %s solution: %s", name, why)
		}
	}

	// 7. Conjunctive certain answers: same-post endorsers two hops apart.
	cq := crpq.MustParse(
		"ans(x, y) :- x -[follows follows]-> y, x -[endorses]-> p, y -[endorses]-> p")
	tuples, err := s.CertainConjunctive(ctx, cq)
	if err != nil {
		t.Fatal(err)
	}
	// Consistency: every conjunctive answer's pair is also a plain certain
	// answer of the navigational part.
	for _, tup := range tuples.Sorted() {
		if !nullNav.Has(tup[0].ID, tup[1].ID) {
			t.Fatalf("conjunctive answer %v not among navigational certain answers", tup)
		}
	}
}
