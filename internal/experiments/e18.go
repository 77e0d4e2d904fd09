package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/datagraph"
	"repro/internal/engine"
	"repro/internal/ingest"
	"repro/internal/relational"
	"repro/internal/rpq"
	"repro/internal/workload"
)

// E18RelationalIngest measures the relational bulk-ingestion path end to
// end: a synthetic customer/product/orders source streams through
// internal/ingest's direct mapping into a data graph (rows/sec,
// edges/sec), the graph is exchanged under a relational GSM over the
// direct-mapped labels, and a certain-answer query batch runs on the
// solution — the time-to-first-certain-answer column is the sum, the
// relational→graph→certain-answers scenario Proposition 1 makes precise.
//
// Two built-in cross-checks fail the experiment on regression:
//
//   - the batched pipeline must pay at most one full snapshot rebuild
//     (the first freeze); everything after must ride the delta-merge path;
//   - on a 10³-row slice, the streamed graph must be byte-for-byte
//     identical (as D_G) to internal/relational's naive in-process direct
//     mapping — the Proposition 1 pin at benchmark scale.
func E18RelationalIngest(quick bool) (Table, error) {
	t := Table{
		ID:     "E18",
		Title:  "relational bulk ingestion: streaming direct mapping + exchange",
		Claim:  "Prop 1 scenario: relational source → graph exchange → certain answers",
		Header: []string{"rows", "ingest", "krows/s", "edges", "kedges/s", "full", "delta", "exchange", "query", "answers", "t2fca", "pinned"},
	}

	specs := []workload.RelationalSpec{
		{Customers: 20_000, Products: 5_000, Orders: 100_000, Seed: 18},
		{Customers: 150_000, Products: 50_000, Orders: 800_000, Seed: 18},
	}
	if quick {
		specs = []workload.RelationalSpec{{Customers: 2_500, Products: 500, Orders: 9_500, Seed: 18}}
	}

	// Cross-validation slice: ~10³ rows, streamed vs the in-process
	// reference direct mapping, compared byte-for-byte via each side's
	// relational view. One verdict covers the table (same generator, same
	// mapping code at every size).
	pinned, err := crossValidateSlice()
	if err != nil {
		return t, err
	}

	ctx := context.Background()
	query := rpq.MustParse("placed-by located-in")
	for _, spec := range specs {
		d := workload.Relational(spec)

		start := time.Now()
		g, rep, err := ingest.Load(ctx, d.Schema, ingest.Options{}, d.Sources()...)
		if err != nil {
			return t, fmt.Errorf("E18: ingest: %w", err)
		}
		ingestDur := time.Since(start)
		if rep.FullBuilds > 1 {
			return t, fmt.Errorf("E18: batched ingest paid %d full snapshot rebuilds (want ≤ 1): the delta-freeze schedule regressed", rep.FullBuilds)
		}

		// Exchange under a relational GSM over direct-mapped labels: order
		// placements become placed-by edges, customer cities located-in.
		m := core.NewMapping(
			core.R("orders#customer", "placed-by"),
			core.R("customer#city", "located-in"),
		)
		cm, err := core.Compile(m)
		if err != nil {
			return t, err
		}
		start = time.Now()
		u, err := core.NewMaterialization(cm, g).UniversalCtx(ctx)
		if err != nil {
			return t, fmt.Errorf("E18: exchange: %w", err)
		}
		exchangeDur := time.Since(start)

		start = time.Now()
		res, err := engine.EvalGraph(ctx, u, core.NavQuery{Q: query}, datagraph.SQLNulls, engine.Options{ChunkSize: 256})
		if err != nil {
			return t, fmt.Errorf("E18: query: %w", err)
		}
		ans := core.FilterNullAnswers(u, res)
		queryDur := time.Since(start)

		rows := spec.Rows()
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", rows),
			ingestDur.Round(time.Millisecond).String(),
			fmt.Sprintf("%.0f", float64(rows)/ingestDur.Seconds()/1000),
			fmt.Sprintf("%d", rep.Edges),
			fmt.Sprintf("%.0f", float64(rep.Edges)/ingestDur.Seconds()/1000),
			fmt.Sprintf("%d", rep.FullBuilds),
			fmt.Sprintf("%d", rep.DeltaBuilds),
			exchangeDur.Round(time.Millisecond).String(),
			queryDur.Round(time.Millisecond).String(),
			fmt.Sprintf("%d", ans.Len()),
			(ingestDur + exchangeDur + queryDur).Round(time.Millisecond).String(),
			fmt.Sprintf("%v", pinned),
		})
	}
	t.Notes = append(t.Notes,
		"t2fca = ingest + exchange + first certain-answer batch (time to first certain answer)",
		"pinned = streamed ingest ≡ in-process relational direct mapping, byte-for-byte on a 10³-row slice",
	)
	return t, nil
}

// crossValidateSlice pins the streaming pipeline to the relational
// reference implementation on a ~10³-row dataset.
func crossValidateSlice() (bool, error) {
	d := workload.Relational(workload.RelationalSpec{Customers: 200, Products: 50, Orders: 750, Seed: 18})
	g, _, err := ingest.Load(context.Background(), d.Schema, ingest.Options{BatchSize: 128}, d.Sources()...)
	if err != nil {
		return false, fmt.Errorf("E18 cross-validation: ingest: %w", err)
	}
	streamed, err := relational.FromGraph(g).ToGraph()
	if err != nil {
		return false, fmt.Errorf("E18 cross-validation: normalize: %w", err)
	}
	ref, err := relational.DirectInstance(d.Schema, d.Rows)
	if err != nil {
		return false, fmt.Errorf("E18 cross-validation: reference: %w", err)
	}
	refG, err := ref.ToGraph()
	if err != nil {
		return false, fmt.Errorf("E18 cross-validation: reference decode: %w", err)
	}
	if streamed.String() != refG.String() {
		return false, fmt.Errorf("E18 cross-validation: streamed ingest diverged from the reference direct mapping")
	}
	return true, nil
}
