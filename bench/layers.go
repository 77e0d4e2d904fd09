package main

import (
	"runtime"
	"time"
)

const (
	coldReplays  = 7    // cold-path replays per traced pass
	tracedOpsMax = 1000 // traced ops, unless the time box ends first
	tracedOpsMin = 3    // traced ops even when the time box is over
)

// tracedPass replays the cold path a few times, then runs ops with tracing
// on — back to back like the timed phase, so that tracing is the only
// difference — until half of box has passed or tracedOpsMax are done, then
// replays each of those ops in-process. A traced op so has three root spans
// sharing its op number: "op", the real end-to-end op, whose children are
// the layer calls the client makes itself; "replay", the same op's work
// done in-process, one child per layer call in request-path order; and
// "repro.query", the facade call on the warmed embedded session (kept out
// of "replay" because it repeats the kernel and the filter).
func (m *measured) tracedPass(in instance, tr *tracer, box time.Duration) (map[string]metric, error) {
	var cold coldCounts
	graphText, mapping, q := m.sc.pair()
	for i := 0; i < coldReplays; i++ {
		id := tr.begin("cold", -1)
		c, err := coldPath(tr, id, graphText, mapping, q)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		cold = c
	}

	n, traced, respBytes := m.sc.cycle(), 0, 0
	for start := time.Now(); traced < tracedOpsMax && (traced < tracedOpsMin || time.Since(start) < box/2); traced++ {
		tr.op = traced
		id := tr.begin("op", -1)
		nb, err := in.op(tr, id, traced%n)
		tr.end(id)
		m.check(err)
		respBytes += nb
	}
	var counts opCounts
	for k := 0; k < traced; k++ {
		tr.op = k
		id := tr.begin("replay", -1)
		err := in.transport(tr, id)
		var c opCounts
		if err == nil {
			c, err = m.sc.replay(tr, id, k%n)
		}
		tr.end(id)
		if err != nil {
			return nil, err
		}
		id = tr.begin("repro.query", -1)
		err = m.sc.query(k % n)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		counts.pairs += c.pairs
		counts.answers += c.answers
		counts.load = c.load
	}
	tr.op = -1
	ops := float64(traced)

	sp := analyse(tr.spans)
	out := m.client()
	untracedP50 := out["client.op_p50_ms"].Value
	universal, freezeFull := sp.ms("core.universal"), sp.ms("datagraph.freeze_full")
	rep := counts.load
	layers := map[string]metric{
		"client.decode_ms": {sp.ms("client.decode"), "ms"},

		"server.transport_ms":      {sp.ms("server.transport"), "ms"},
		"server.overhead_ms":       {sp.overheadMS, "ms"},
		"server.wire_ms":           {sp.ms("server.wire"), "ms"},
		"server.encode_ms":         {sp.ms("server.encode"), "ms"},
		"server.resp_kb_per_op":    {float64(respBytes) / 1024 / ops, "KB"},
		"server.register_ms":       {sp.ms("server.register"), "ms"},
		"server.session_create_ms": {sp.ms("server.session_create"), "ms"},
		"server.shed":              {float64(m.shed), "count"},
		"server.errors":            {float64(m.errors), "count"},
		"server.evictions":         {float64(m.evictions), "count"},

		"repro.query_ms":       {sp.ms("repro.query"), "ms"},
		"repro.new_session_ms": {sp.ms("repro.new_session"), "ms"},
		"repro.resident_mb":    {float64(m.sc.residentBytes()) / 1e6, "MB"},

		"engine.eval_ms":      {sp.ms("engine.eval"), "ms"},
		"engine.eval_cold_ms": {sp.ms("engine.eval_cold"), "ms"},
		"engine.pairs_per_op": {float64(counts.pairs) / ops, "count"},

		"core.compile_ms":      {sp.ms("core.compile"), "ms"},
		"core.source_pairs_ms": {sp.ms("core.source_pairs"), "ms"},
		"core.chase_ms":        {universal - freezeFull, "ms"},
		"core.filter_ms":       {sp.ms("core.filter"), "ms"},
		"core.solution_nodes":  {float64(cold.nodes), "count"},
		"core.solution_edges":  {float64(cold.edges), "count"},
		"core.answers_per_op":  {float64(counts.answers) / ops, "count"},
		"core.answer_ratio":    {ratio(float64(counts.answers), float64(counts.pairs)), "ratio"},

		"datagraph.parse_ms":           {sp.ms("datagraph.parse"), "ms"},
		"datagraph.freeze_full_ms":     {freezeFull, "ms"},
		"datagraph.freeze_delta_ms":    {sp.ms("datagraph.freeze_delta"), "ms"},
		"datagraph.append_us_per_edge": {sp.ms("datagraph.append") * 1000 / appendEdges, "us"},
		"datagraph.full_builds":        {float64(cold.full), "count"},
		"datagraph.delta_builds":       {float64(cold.delta), "count"},
		"datagraph.snapshot_mb":        {float64(cold.snapshotBytes) / 1e6, "MB"},

		"ingest.krows_per_s":  {ratio(float64(rep.Rows), sp.ms("ingest.load")), "krows/s"},
		"ingest.full_builds":  {float64(rep.FullBuilds), "count"},
		"ingest.delta_builds": {float64(rep.DeltaBuilds), "count"},
		"ingest.batches":      {float64(rep.Batches), "count"},
		"ingest.skipped":      {float64(rep.Skipped), "count"},

		"trace.coverage":       {sp.coverage, "ratio"},
		"trace.overhead_ratio": {ratio(sp.opP50MS, untracedP50), "ratio"},
		"bench.gen_s":          {m.sc.genSeconds(), "s"},
		"bench.num_cpu":        {float64(runtime.NumCPU()), "count"},
		"bench.gomaxprocs":     {float64(runtime.GOMAXPROCS(0)), "count"},
	}
	for name, v := range layers {
		out[name] = v
	}
	return out, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// spanStats is what the per-layer metrics read off a trace.
type spanStats struct {
	// selfMS is each span name's self times in milliseconds, split into
	// spans of traced ops and spans outside any op (set-up, cold path).
	opSelfMS, otherSelfMS map[string][]float64
	// opP50MS is the median duration of the traced "op" spans.
	opP50MS float64
	// coverage is the median, over traced ops, of the time the directly
	// timed layer calls took (the children of "op" and of "replay") as a
	// share of the "op" span: 1 means the parts sum to the whole.
	coverage float64
	// overheadMS is the median of what is left of "op": its self time
	// minus the replayed layer calls — routing, admission, request
	// decoding, bookkeeping.
	overheadMS float64
}

// ms is the median self time of the named spans: those of traced ops when
// the layer is on the op's path, otherwise those of set-up and cold path.
// A layer the workload never calls reads 0.
func (s spanStats) ms(name string) float64 {
	if v := s.opSelfMS[name]; len(v) > 0 {
		return median(v)
	}
	return median(s.otherSelfMS[name])
}

func analyse(spans []span) spanStats {
	self := selfTimes(spans)
	toMS := func(ns int64) float64 { return float64(ns) / float64(time.Millisecond) }
	st := spanStats{opSelfMS: map[string][]float64{}, otherSelfMS: map[string][]float64{}}
	type opParts struct{ op, opSelf, opKids, replayKids float64 }
	parts := map[int]*opParts{}
	for i, s := range spans {
		if s.Op < 0 {
			st.otherSelfMS[s.Name] = append(st.otherSelfMS[s.Name], toMS(self[i]))
			continue
		}
		st.opSelfMS[s.Name] = append(st.opSelfMS[s.Name], toMS(self[i]))
		p := parts[s.Op]
		if p == nil {
			p = &opParts{}
			parts[s.Op] = p
		}
		switch {
		case s.Name == "op":
			p.op, p.opSelf = toMS(s.dur()), toMS(self[i])
		case s.Parent >= 0 && spans[s.Parent].Name == "op":
			p.opKids += toMS(s.dur())
		case s.Parent >= 0 && spans[s.Parent].Name == "replay":
			p.replayKids += toMS(s.dur())
		}
	}
	var ops, coverage, overhead []float64
	for _, p := range parts {
		ops = append(ops, p.op)
		coverage = append(coverage, ratio(p.opKids+p.replayKids, p.op))
		overhead = append(overhead, p.opSelf-p.replayKids)
	}
	st.opP50MS, st.coverage, st.overheadMS = median(ops), median(coverage), median(overhead)
	return st
}
