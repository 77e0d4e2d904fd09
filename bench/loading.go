package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/datagraph"
	"repro/internal/ingest"
	"repro/internal/server"
	"repro/internal/workload"
)

// loading is the scenario behind ingest-t2fca, the canonical load: CSV text
// of a customer/product/orders source streams through the direct mapping
// into a data graph, the graph is exchanged under a relational mapping, and
// the first certain answers are computed — no server, no warm state.
type loading struct {
	gen      float64
	schema   *ingest.Schema
	csv      []ingest.Source // one CSVString source per table, in schema order
	mapping  *core.Mapping
	cm       *core.CompiledMapping
	q        core.Query
	expected []byte // canonical answers bytes, from a load of the in-memory rows
	answers  int
	embedded *repro.Session
	resident int64
	// graphText is the loaded graph in datagraph's text form: what the cold
	// path parses and registers, as `gsm ingest` output would be.
	graphText string
}

func newLoading(seed int64) (*loading, error) {
	start := time.Now()
	d := workload.Relational(workload.RelationalSpec{Customers: 4000, Products: 1000, Orders: 15000, Seed: seed})
	l := &loading{schema: d.Schema}
	for i := range d.Schema.Tables {
		t := &d.Schema.Tables[i]
		var b strings.Builder
		for ci, c := range t.Columns {
			if ci > 0 {
				b.WriteByte(',')
			}
			b.WriteString(c.Name)
		}
		b.WriteByte('\n')
		for _, row := range d.Rows[t.Name] {
			b.WriteString(strings.Join(row, ","))
			b.WriteByte('\n')
		}
		l.csv = append(l.csv, ingest.CSVString(t.Name, b.String()))
	}
	l.gen = time.Since(start).Seconds()

	// Order placements become placed-by edges, customer cities located-in:
	// the query joins them across the exchange.
	l.mapping = core.NewMapping(core.R("orders#customer", "placed-by"), core.R("customer#city", "located-in"))
	var err error
	if l.cm, err = repro.Compile(l.mapping); err != nil {
		return nil, err
	}
	if l.q, err = repro.ParseRPQ("placed-by located-in"); err != nil {
		return nil, err
	}
	// The expectation comes from the in-memory rows, so every timed op also
	// checks that the CSV path lands the same graph.
	ctx := context.Background()
	g, _, err := ingest.Load(ctx, d.Schema, ingest.Options{}, d.Sources()...)
	if err != nil {
		return nil, fmt.Errorf("expected load: %w", err)
	}
	if l.embedded, err = repro.NewSession(l.cm, g); err != nil {
		return nil, err
	}
	ans, err := l.embedded.CertainNull(ctx, l.q)
	if err != nil {
		return nil, err
	}
	l.answers = ans.Len()
	if l.expected, err = json.Marshal(server.AnswersWire(ans)); err != nil {
		return nil, err
	}
	// Session.MemoryBytes panics here: core.Materialization.SizeBytes calls
	// Value.Raw on the null-valued nodes that NULL cells put into dom(M, Gs).
	// Until that is fixed, count the two graphs the session keeps resident.
	u, err := l.embedded.UniversalSolution(ctx)
	if err != nil {
		return nil, err
	}
	l.resident = g.SizeBytes() + u.SizeBytes()
	l.graphText = g.String()
	return l, nil
}

func (l *loading) genSeconds() float64  { return l.gen }
func (l *loading) cycle() int           { return 1 }
func (l *loading) allocOps() int        { return 5 }
func (l *loading) residentBytes() int64 { return l.resident }

func (l *loading) query(int) error {
	_, err := l.embedded.CertainNull(context.Background(), l.q)
	return err
}

// load ingests the CSV text and insists that the batched appends rode the
// delta-freeze path: at most one full snapshot build per load.
func load(schema *ingest.Schema, csv []ingest.Source) (*datagraph.Graph, *ingest.Report, error) {
	g, rep, err := ingest.Load(context.Background(), schema, ingest.Options{}, csv...)
	if err != nil {
		return nil, nil, err
	}
	if rep.FullBuilds > 1 {
		return nil, nil, fmt.Errorf("ingest paid %d full snapshot builds, want at most 1", rep.FullBuilds)
	}
	return g, rep, nil
}

func (l *loading) replay(tr *tracer, parent, _ int) (opCounts, error) {
	id := tr.begin("ingest.load", parent)
	g, rep, err := load(l.schema, l.csv)
	tr.end(id)
	if err != nil {
		return opCounts{}, err
	}
	_, _, counts, err := exchange(tr, parent, l.cm, g, l.q)
	counts.load = *rep
	return counts, err
}

func (l *loading) pair() (string, *core.Mapping, core.Query) { return l.graphText, l.mapping, l.q }

// setUp parses the schema text, compiles the mapping and runs one op whose
// answers are checked byte for byte.
func (l *loading) setUp() (instance, error) {
	schema, err := ingest.ParseSchema(l.schema.String())
	if err != nil {
		return nil, err
	}
	cm, err := repro.Compile(l.mapping)
	if err != nil {
		return nil, err
	}
	in := &loadingInstance{l: l, schema: schema, cm: cm}
	ans, err := in.run()
	if err != nil {
		return nil, err
	}
	got, err := json.Marshal(server.AnswersWire(ans))
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(got, l.expected) {
		return nil, fmt.Errorf("set-up verification: CSV load answers differ from the in-memory load's")
	}
	return in, nil
}

type loadingInstance struct {
	l      *loading
	schema *ingest.Schema
	cm     *core.CompiledMapping
}

// run is the op: load, open a session, ask the first question.
func (in *loadingInstance) run() (*core.Answers, error) {
	g, _, err := load(in.schema, in.l.csv)
	if err != nil {
		return nil, err
	}
	sess, err := repro.NewSession(in.cm, g)
	if err != nil {
		return nil, err
	}
	return sess.CertainNull(context.Background(), in.l.q)
}

func (in *loadingInstance) op(*tracer, int, int) (int, error) {
	ans, err := in.run()
	if err != nil {
		return 0, err
	}
	if ans.Len() != in.l.answers {
		return 0, fmt.Errorf("load gave %d certain answers, want %d", ans.Len(), in.l.answers)
	}
	return 0, nil
}

func (in *loadingInstance) transport(*tracer, int) error         { return nil }
func (in *loadingInstance) stats() (server.StatsResponse, error) { return server.StatsResponse{}, nil }
func (in *loadingInstance) close()                               {}
