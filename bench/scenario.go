package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"

	"repro"
	"repro/internal/core"
	"repro/internal/datagraph"
	"repro/internal/engine"
	"repro/internal/ingest"
	"repro/internal/server"
)

// scenario is one workload: inputs generated from the seed, the answers
// they must give, a from-scratch set-up, and an in-process replay of its op
// through each layer's public function. Nothing here survives a change of
// seed: newScenario recomputes the expectations every time.
type scenario interface {
	// genSeconds is the time input generation took (not part of set-up).
	genSeconds() float64
	// cycle is the number of distinct ops before the stream repeats.
	cycle() int
	// allocOps is the size of the fixed-count allocation pass, a whole
	// number of cycles.
	allocOps() int
	// setUp builds a verified instance from scratch.
	setUp() (instance, error)
	// replay runs op i's work in-process, one span per layer call, in
	// request-path order, under the parent span.
	replay(tr *tracer, parent, i int) (opCounts, error)
	// pair is what the cold path (see coldPath) runs on: the source graph's
	// text form, the mapping and op 0's query.
	pair() (graphText string, m *core.Mapping, q core.Query)
	// query runs op i's query on the warmed embedded session.
	query(i int) error
	// residentBytes is the embedded session's Session.MemoryBytes.
	residentBytes() int64
}

// instance is one set-up: what the timed loop drives.
type instance interface {
	// op runs op i end to end and checks its answers. In a traced run the
	// layer calls the client makes itself are recorded under parent.
	// respBytes is the size of the HTTP response body (0 without HTTP).
	op(tr *tracer, parent, i int) (respBytes int, err error)
	// transport records, under parent, an empty round trip on the op's
	// connection; without a server it records nothing.
	transport(tr *tracer, parent int) error
	// stats reads the server's counters (zero without a server).
	stats() (server.StatsResponse, error)
	close()
}

// opCounts is the work one replayed op did.
type opCounts struct {
	pairs, answers int
	load           ingest.Report // zero unless the op ingests
}

// coldCounts describes the solution one cold-path replay built.
type coldCounts struct {
	nodes, edges  int
	full, delta   uint64
	snapshotBytes int64
}

var workloadNames = []string{"serve-point", "serve-scan", "exchange-cold", "ingest-t2fca"}

func newScenario(name string, seed int64) (scenario, error) {
	switch name {
	case "serve-point", "serve-scan", "exchange-cold":
		return newServing(name, seed)
	case "ingest-t2fca":
		return newLoading(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// evalOpts are the engine options a default repro.Session evaluates with.
var evalOpts = engine.Options{ChunkSize: 32}

// appendEdges is the burst the delta-freeze span merges.
const appendEdges = 100

// hot replays a query on an already materialized, frozen solution: the
// kernel (recorded as evalSpan), then the null filter.
func hot(tr *tracer, parent int, u *datagraph.Graph, q core.Query, evalSpan string) (*core.Answers, opCounts, error) {
	id := tr.begin(evalSpan, parent)
	res, err := engine.EvalGraph(context.Background(), u, q, datagraph.SQLNulls, evalOpts)
	tr.end(id)
	if err != nil {
		return nil, opCounts{}, err
	}
	id = tr.begin("core.filter", parent)
	ans := core.FilterNullAnswers(u, res)
	tr.end(id)
	return ans, opCounts{pairs: res.Len(), answers: ans.Len()}, nil
}

// exchange replays a throwaway session's first query on source graph g:
// open the session, evaluate the rules' source queries, chase (which ends
// in the solution's first full freeze), lower and run the query, filter.
func exchange(tr *tracer, parent int, cm *core.CompiledMapping, g *datagraph.Graph, q core.Query) (*datagraph.Graph, *core.Answers, opCounts, error) {
	id := tr.begin("repro.new_session", parent)
	_, err := repro.NewSession(cm, g)
	tr.end(id)
	if err != nil {
		return nil, nil, opCounts{}, err
	}
	mat := core.NewMaterialization(cm, g)
	id = tr.begin("core.source_pairs", parent)
	mat.SourcePairs()
	tr.end(id)
	id = tr.begin("core.universal", parent)
	u, err := mat.Universal()
	tr.end(id)
	if err != nil {
		return nil, nil, opCounts{}, err
	}
	ans, counts, err := hot(tr, parent, u, q, "engine.eval_cold")
	return u, ans, counts, err
}

// answerPath replays what follows the facade on the HTTP path: the wire
// copy and the JSON encoding of the response, which it returns.
func answerPath(tr *tracer, parent int, ans *core.Answers) ([]byte, error) {
	id := tr.begin("server.wire", parent)
	wire := server.AnswersWire(ans)
	tr.end(id)
	id = tr.begin("server.encode", parent)
	body, err := json.Marshal(server.QueryResponse{Algo: "null", Count: ans.Len(), Answers: wire})
	tr.end(id)
	return body, err
}

// coldPath replays, on one (source graph text, mapping, query), everything a
// warmed session never pays again and everything that happens to its
// answers afterwards, one span per public layer call: parse the graph,
// compile the mapping, register both on a fresh server, open a session
// there and make one empty round trip, then in-process the exchange (session, source pairs, chase and
// first freeze, first evaluation, filter), a second (warm) evaluation, the
// wire copy, the JSON encoding and the client's decoding, a from-scratch
// freeze of the solution, and an append burst merged by a delta freeze.
// Every workload runs it, so every layer has a time on every workload.
func coldPath(tr *tracer, parent int, graphText string, m *core.Mapping, q core.Query) (coldCounts, error) {
	id := tr.begin("datagraph.parse", parent)
	g, err := datagraph.ParseString(graphText)
	tr.end(id)
	if err != nil {
		return coldCounts{}, err
	}
	id = tr.begin("core.compile", parent)
	cm, err := core.Compile(m)
	tr.end(id)
	if err != nil {
		return coldCounts{}, err
	}
	ts := httptest.NewServer(server.New(server.Config{}).Handler())
	_, err = openSession(tr, parent, ts, m.String(), graphText)
	if err == nil {
		err = roundTrip(tr, parent, ts)
	}
	ts.Close()
	if err != nil {
		return coldCounts{}, err
	}
	u, ans, _, err := exchange(tr, parent, cm, g, q)
	if err != nil {
		return coldCounts{}, err
	}
	if _, _, err := hot(tr, parent, u, q, "engine.eval"); err != nil {
		return coldCounts{}, err
	}
	body, err := answerPath(tr, parent, ans)
	if err != nil {
		return coldCounts{}, err
	}
	var reply queryReply
	id = tr.begin("client.decode", parent)
	err = json.Unmarshal(body, &reply)
	tr.end(id)
	if err != nil {
		return coldCounts{}, err
	}
	c := coldCounts{nodes: u.NumNodes(), edges: u.NumEdges()}
	id = tr.begin("datagraph.freeze_full", parent)
	snap := u.FreezeFull()
	tr.end(id)
	c.snapshotBytes = snap.SizeBytes()
	id = tr.begin("datagraph.append", parent)
	for i := 0; i < appendEdges; i++ {
		if err := u.AddEdge(u.Node(i%c.nodes).ID, "bench-append", u.Node((i+1)%c.nodes).ID); err != nil {
			return coldCounts{}, err
		}
	}
	tr.end(id)
	id = tr.begin("datagraph.freeze_delta", parent)
	u.Freeze()
	tr.end(id)
	c.full, c.delta = u.SnapshotBuilds()
	return c, nil
}
