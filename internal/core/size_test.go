package core

import (
	"testing"

	"repro/internal/datagraph"
	"repro/internal/rpq"
)

// TestSizeBytesWithNullValues: a source node may carry the null value (a
// NULL cell of an ingested table), so dom(M, Gs) and least-informative
// answers can hold one. Sizing them used to call Value.Raw, which panics on
// null; the serving layer re-reads the size after every session query.
func TestSizeBytesWithNullValues(t *testing.T) {
	gs := datagraph.New()
	gs.MustAddNode("row", datagraph.V("1"))
	gs.MustAddNode("cell", datagraph.Null())
	gs.MustAddEdge("row", "city", "cell")
	cm, err := Compile(NewMapping(R("city", "located-in")))
	if err != nil {
		t.Fatal(err)
	}
	mat := NewMaterialization(cm, gs)
	if got := len(mat.DomNodes()); got != 2 {
		t.Fatalf("dom(M, Gs) has %d nodes, want 2", got)
	}
	if b := mat.SizeBytes(); b <= 0 {
		t.Fatalf("Materialization.SizeBytes = %d, want > 0", b)
	}

	ans, err := mat.CertainLeastInformative(ctx, NavQuery{Q: rpq.MustParse("located-in")})
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Has("row", "cell") {
		t.Fatalf("answers %v lack the pair ending in the null-valued node", ans)
	}
	withValue := NewAnswers()
	withValue.Add(Answer{From: gs.Node(0), To: datagraph.Node{ID: "cell", Value: datagraph.V("")}})
	if got, want := ans.SizeBytes(), withValue.SizeBytes(); got != want {
		t.Fatalf("null sized as %d bytes, want the zero-length value's %d", got, want)
	}
}
