package main

import "testing"

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("engine.eval", -1)
	tr.end(id) // must not panic
	if id != -1 {
		t.Errorf("nil tracer handed out span id %d", id)
	}
}

func TestTracerStampsParentAndOp(t *testing.T) {
	tr := newTracer()
	tr.op = 4
	root := tr.begin("op", -1)
	kid := tr.begin("client.decode", root)
	tr.end(kid)
	tr.end(root)
	got := tr.spans[kid]
	if got.Parent != root || got.Op != 4 || got.Name != "client.decode" || got.End < got.Start {
		t.Errorf("child span = %+v", got)
	}
	if r := tr.spans[root]; r.Start > got.Start || r.End < got.End {
		t.Errorf("root %+v does not enclose child %+v", r, got)
	}
}

func TestSelfTimeSubtractsTheCoveredInterval(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "b", Start: 20, End: 50},  // overlaps a: 10..50 counts once
		{ID: 3, Parent: 0, Name: "c", Start: 90, End: 120}, // clipped to the parent's end
		{ID: 4, Parent: 2, Name: "d", Start: 25, End: 45},  // grandchild: only b's business
		{ID: 5, Parent: -1, Name: "replay", Start: 200, End: 260},
		{ID: 6, Parent: 0, Name: "late", Start: 210, End: 250}, // caused by op, outside its interval
	}
	want := []int64{100 - 40 - 10, 20, 30 - 20, 30, 20, 60, 40}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %q = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

// tracedOp lays out one traced op the way tracedPass does: the real op with
// the client's own decode inside it, then the in-process replay.
func tracedOp(spans []span, op int, at, opNS, decodeNS int64, replayNS ...int64) []span {
	id := len(spans)
	spans = append(spans,
		span{ID: id, Parent: -1, Op: op, Name: "op", Start: at, End: at + opNS},
		span{ID: id + 1, Parent: id, Op: op, Name: "client.decode", Start: at + opNS - decodeNS, End: at + opNS})
	at += opNS
	replay := len(spans)
	spans = append(spans, span{ID: replay, Parent: -1, Op: op, Name: "replay", Start: at})
	for i, d := range replayNS {
		spans = append(spans, span{ID: len(spans), Parent: replay, Op: op,
			Name: []string{"engine.eval", "core.filter"}[i], Start: at, End: at + d})
		at += d
	}
	spans[replay].End = at
	return spans
}

func TestCoverageAndOverhead(t *testing.T) {
	const ms = 1_000_000
	var spans []span
	// Three ops: parts cover 80 %, 90 % and 50 % of the op.
	spans = tracedOp(spans, 0, 0, 100*ms, 10*ms, 30*ms, 40*ms)
	spans = tracedOp(spans, 1, 1000*ms, 100*ms, 10*ms, 50*ms, 30*ms)
	spans = tracedOp(spans, 2, 2000*ms, 200*ms, 20*ms, 40*ms, 40*ms)
	// A cold-path span outside any op.
	spans = append(spans, span{ID: len(spans), Parent: -1, Op: -1, Name: "core.universal", Start: 0, End: 7 * ms})
	spans = append(spans, span{ID: len(spans), Parent: -1, Op: -1, Name: "engine.eval", Start: 0, End: 999 * ms})

	st := analyse(spans)
	if !near(st.coverage, 0.8) {
		t.Errorf("coverage = %v, want the median of 0.8, 0.9, 0.5", st.coverage)
	}
	// What is left of each op after its decode and its replayed layers:
	// 90−70, 90−80, 180−80.
	if !near(st.overheadMS, 20) {
		t.Errorf("overhead = %v ms, want the median of 20, 10, 100", st.overheadMS)
	}
	if !near(st.opP50MS, 100) {
		t.Errorf("traced op p50 = %v ms, want 100", st.opP50MS)
	}
	// A layer on the op's path reads its per-op spans, not the cold ones.
	if got := st.ms("engine.eval"); !near(got, 40) {
		t.Errorf("engine.eval = %v ms, want the median of 30, 50, 40", got)
	}
	if got := st.ms("core.universal"); !near(got, 7) {
		t.Errorf("core.universal = %v ms, want the cold path's 7", got)
	}
	// The op's self time excludes the decode done inside it.
	if got := st.ms("op"); !near(got, 90) {
		t.Errorf("op self time = %v ms, want the median of 90, 90, 180", got)
	}
	if got := st.ms("ingest.load"); got != 0 {
		t.Errorf("a layer never called reads %v, want 0", got)
	}
}
