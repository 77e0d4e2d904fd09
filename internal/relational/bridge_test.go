package relational

import (
	"context"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/datagraph"
	"repro/internal/ingest"
)

// ingestGraphString loads the rows through the streaming pipeline and
// renders the relational view of the resulting graph, normalized by
// ToGraph's sorted node order.
func ingestGraphString(t *testing.T, s *ingest.Schema, rows map[string][][]string) string {
	t.Helper()
	srcs := make([]ingest.Source, 0, len(s.Tables))
	for i := range s.Tables {
		name := s.Tables[i].Name
		srcs = append(srcs, ingest.Rows(name, rows[name]))
	}
	g, _, err := ingest.Load(context.Background(), s, ingest.Options{BatchSize: 2}, srcs...)
	if err != nil {
		t.Fatalf("ingest.Load: %v", err)
	}
	norm, err := FromGraph(g).ToGraph()
	if err != nil {
		t.Fatalf("normalize ingested graph: %v", err)
	}
	return norm.String()
}

// directInstanceString renders the reference direct mapping the same way.
func directInstanceString(t *testing.T, s *ingest.Schema, rows map[string][][]string) string {
	t.Helper()
	in, err := DirectInstance(s, rows)
	if err != nil {
		t.Fatalf("DirectInstance: %v", err)
	}
	g, err := in.ToGraph()
	if err != nil {
		t.Fatalf("DirectInstance.ToGraph: %v", err)
	}
	return g.String()
}

// TestIngestPinsToDirectMapping pins internal/ingest's streaming pipeline
// to the naive relational reference implementation byte-for-byte on the
// shared Proposition 1 fixture.
func TestIngestPinsToDirectMapping(t *testing.T) {
	s, rows, err := Prop1Fixture()
	if err != nil {
		t.Fatal(err)
	}
	got := ingestGraphString(t, s, rows)
	want := directInstanceString(t, s, rows)
	if got != want {
		t.Fatalf("streaming ingest diverged from reference direct mapping:\n--- ingest\n%s--- reference\n%s", got, want)
	}
}

// TestIngestPinsToDirectMappingAtScale repeats the pin on a generated
// thousand-row slice, the cross-validation size the E18 experiment reuses.
func TestIngestPinsToDirectMappingAtScale(t *testing.T) {
	s, err := ingest.ParseSchema(`
table parent
col parent id int pk
col parent name text
table child
col child id int pk
col child parent_id int null
col child score float null
fk child parent_id parent.id
`)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string][][]string{}
	for i := 1; i <= 250; i++ {
		rows["parent"] = append(rows["parent"], []string{strconv.Itoa(i), "p" + strconv.Itoa(i)})
	}
	for i := 1; i <= 750; i++ {
		pid := strconv.Itoa((i % 250) + 1)
		score := ""
		if i%3 != 0 {
			score = strconv.FormatFloat(float64(i)/8, 'g', -1, 64)
		}
		rows["child"] = append(rows["child"], []string{strconv.Itoa(i), pid, score})
	}
	got := ingestGraphString(t, s, rows)
	want := directInstanceString(t, s, rows)
	if got != want {
		t.Fatalf("streaming ingest diverged from reference direct mapping at scale")
	}
}

// TestProp1OnIngestedFixture re-runs the Proposition 1 validation with the
// source graph produced by the direct mapping instead of a hand-built
// fixture: solutions under a relational mapping over the direct-mapped
// labels must satisfy M_rel, in both encodings of the correspondence.
func TestProp1OnIngestedFixture(t *testing.T) {
	s, rows, err := Prop1Fixture()
	if err != nil {
		t.Fatal(err)
	}
	srcs := []ingest.Source{ingest.Rows("person", rows["person"]), ingest.Rows("city", rows["city"])}
	gs, _, err := ingest.Load(context.Background(), s, ingest.Options{}, srcs...)
	if err != nil {
		t.Fatal(err)
	}
	// A relational GSM over the fixture's direct-mapped labels: mentor
	// edges become two-step advises·trusts chains, name properties carry
	// over as has-name edges.
	m := core.NewMapping(
		core.R("mentor", "advises trusts"),
		core.R("person#name", "has-name"),
	)
	mr, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	u, err := mat(m, gs).UniversalCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ok, why := mr.Satisfied(FromGraph(gs), FromGraph(u)); !ok {
		t.Fatalf("universal solution over ingested source must satisfy M_rel: %s", why)
	}
	// And the correspondence detects damage: removing each solution edge
	// in turn, the graph view and the relational view must agree on
	// whether the mutant still solves the mapping.
	if len(u.Edges()) == 0 {
		t.Fatal("universal solution has no edges; fixture too weak")
	}
	ds := FromGraph(gs)
	for _, victim := range u.Edges() {
		mutant := datagraph.New()
		for _, n := range u.Nodes() {
			mutant.MustAddNode(n.ID, n.Value)
		}
		for _, e := range u.Edges() {
			if e == victim {
				continue
			}
			mutant.MustAddEdge(e.From, e.Label, e.To)
		}
		graphView := m.Satisfies(gs, mutant)
		relView, _ := mr.Satisfied(ds, FromGraph(mutant))
		if graphView != relView {
			t.Errorf("edge %v removed: graph view %v, relational view %v", victim, graphView, relView)
		}
	}
}
