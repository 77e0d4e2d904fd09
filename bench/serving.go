package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/datagraph"
	"repro/internal/server"
	"repro/internal/workload"
)

// scanQueries are serve-scan's navigational RPQs over the bulk target
// relations p, q, r (and once the small s, t): wide frontiers and thousands
// of answers, where serve-point's REE stream is selective.
var scanQueries = []string{"p q", "r q", "p q r", "(p|r) q", "s t", "p q q", "r q p", "(p|r) q (p|r)"}

// serving is the scenario behind serve-point, serve-scan and exchange-cold:
// the canonical serving pair on an in-process gsmd, driven over loopback
// HTTP by one client on one keep-alive connection.
type serving struct {
	name     string
	gen      float64
	sc       workload.ServingScenario
	lang     string
	texts    []string
	queries  []core.Query
	expected [][]byte // canonical answers bytes per query, from the embedded session
	cm       *core.CompiledMapping
	embedded *repro.Session   // warmed by computing expected
	u        *datagraph.Graph // its universal solution, frozen
}

func newServing(name string, seed int64) (*serving, error) {
	start := time.Now()
	sc := workload.Serving(workload.ServingSpec{Nodes: 3000, Edges: 9000, Queries: 50, Seed: seed})
	s := &serving{name: name, sc: sc, lang: "ree", texts: sc.QueryTexts, queries: sc.Queries}
	if name == "serve-scan" {
		s.lang, s.texts, s.queries = "rpq", scanQueries, nil
		for _, text := range scanQueries {
			q, err := repro.ParseRPQ(text)
			if err != nil {
				return nil, fmt.Errorf("scan query %q: %w", text, err)
			}
			s.queries = append(s.queries, q)
		}
	}
	s.gen = time.Since(start).Seconds()

	var err error
	if s.cm, err = repro.Compile(sc.Mapping); err != nil {
		return nil, err
	}
	if s.embedded, err = repro.NewSession(s.cm, sc.Graph); err != nil {
		return nil, err
	}
	ctx := context.Background()
	for i, q := range s.queries {
		ans, err := s.embedded.CertainNull(ctx, q)
		if err != nil {
			return nil, fmt.Errorf("expected answers of %q: %w", s.texts[i], err)
		}
		b, err := json.Marshal(server.AnswersWire(ans))
		if err != nil {
			return nil, err
		}
		s.expected = append(s.expected, b)
	}
	s.u, err = s.embedded.UniversalSolution(ctx)
	return s, err
}

func (s *serving) genSeconds() float64  { return s.gen }
func (s *serving) cycle() int           { return len(s.queries) }
func (s *serving) residentBytes() int64 { return s.embedded.MemoryBytes() }

func (s *serving) allocOps() int {
	switch s.name {
	case "serve-point":
		return 4 * s.cycle()
	case "serve-scan":
		return 2 * s.cycle()
	}
	return s.cycle()
}

func (s *serving) query(i int) error {
	_, err := s.embedded.CertainNull(context.Background(), s.queries[i])
	return err
}

func (s *serving) replay(tr *tracer, parent, i int) (opCounts, error) {
	var (
		ans    *core.Answers
		counts opCounts
		err    error
	)
	if s.name == "exchange-cold" {
		// The registered graph is frozen by its first session, like
		// sc.Graph here; every one-shot pays everything after that.
		_, ans, counts, err = exchange(tr, parent, s.cm, s.sc.Graph, s.queries[i])
	} else {
		ans, counts, err = hot(tr, parent, s.u, s.queries[i], "engine.eval")
	}
	if err != nil {
		return counts, err
	}
	_, err = answerPath(tr, parent, ans)
	return counts, err
}

func (s *serving) pair() (string, *core.Mapping, core.Query) {
	return s.sc.GraphText, s.sc.Mapping, s.queries[0]
}

// setUp boots a server, registers the pair, opens the session and runs
// every query once, checking its answer bytes.
func (s *serving) setUp() (instance, error) {
	in := &servingInstance{
		s:  s,
		ts: httptest.NewServer(server.New(server.Config{}).Handler()),
	}
	if err := in.prepare(); err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

type servingInstance struct {
	s      *serving
	ts     *httptest.Server
	url    string   // the query endpoint ops post to
	bodies [][]byte // request body per query
	resp   bytes.Buffer
}

func (in *servingInstance) prepare() error {
	s := in.s
	sessionID, err := openSession(nil, -1, in.ts, s.sc.MappingText, s.sc.GraphText)
	if err != nil {
		return err
	}
	// exchange-cold's ops bring their own throwaway sessions; the one just
	// opened only keeps the three serving set-ups alike.
	in.url = in.ts.URL + "/v1/sessions/" + sessionID + "/query"
	request := func(text string) any { return server.QueryRequest{Query: text, Lang: s.lang} }
	if s.name == "exchange-cold" {
		in.url = in.ts.URL + "/v1/query"
		request = func(text string) any {
			return server.OneShotRequest{Mapping: "bench", Graph: "bench", Query: text, Lang: s.lang}
		}
	}
	for _, text := range s.texts {
		b, err := json.Marshal(request(text))
		if err != nil {
			return err
		}
		in.bodies = append(in.bodies, b)
	}
	for i := range s.texts {
		if _, err := in.op(nil, -1, i); err != nil {
			return fmt.Errorf("set-up verification: %w", err)
		}
	}
	return nil
}

// openSession registers a mapping and a graph on the server as "bench" and
// opens a session over the pair, returning its id.
func openSession(tr *tracer, parent int, ts *httptest.Server, mappingText, graphText string) (string, error) {
	hc := ts.Client()
	id := tr.begin("server.register", parent)
	err := call(hc, http.MethodPost, ts.URL+"/v1/mappings", server.RegisterMappingRequest{Name: "bench", Text: mappingText}, nil)
	if err == nil {
		err = call(hc, http.MethodPost, ts.URL+"/v1/graphs", server.RegisterGraphRequest{Name: "bench", Text: graphText}, nil)
	}
	tr.end(id)
	if err != nil {
		return "", err
	}
	var si server.SessionInfo
	id = tr.begin("server.session_create", parent)
	err = call(hc, http.MethodPost, ts.URL+"/v1/sessions", server.CreateSessionRequest{Mapping: "bench", Graph: "bench"}, &si)
	tr.end(id)
	return si.ID, err
}

// roundTrip records the transport alone: GET /healthz goes through the
// client, the loopback connection and the server's mux, but not through the
// governor, a session or a backend.
func roundTrip(tr *tracer, parent int, ts *httptest.Server) error {
	id := tr.begin("server.transport", parent)
	err := call(ts.Client(), http.MethodGet, ts.URL+"/healthz", nil, nil)
	tr.end(id)
	return err
}

// call is the set-up client: one JSON request, one decoded JSON reply.
func call(hc *http.Client, method, url string, body, out any) error {
	var payload bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&payload).Encode(body); err != nil {
			return err
		}
	}
	req, err := http.NewRequest(method, url, &payload)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, reply)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(reply, out)
}

// queryReply is what the client needs of a server.QueryResponse: the raw
// answers array, compared byte for byte with the embedded session's.
type queryReply struct {
	Count   int             `json:"count"`
	Answers json.RawMessage `json:"answers"`
}

func (in *servingInstance) op(tr *tracer, parent, i int) (int, error) {
	resp, err := in.ts.Client().Post(in.url, "application/json", bytes.NewReader(in.bodies[i]))
	if err != nil {
		return 0, err
	}
	in.resp.Reset()
	_, err = in.resp.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("query %q: status %d: %s", in.s.texts[i], resp.StatusCode, in.resp.Bytes())
	}
	var reply queryReply
	id := tr.begin("client.decode", parent)
	err = json.Unmarshal(in.resp.Bytes(), &reply)
	tr.end(id)
	if err != nil {
		return 0, err
	}
	if !bytes.Equal(reply.Answers, in.s.expected[i]) {
		return 0, fmt.Errorf("query %q: %d answers differ from the embedded session's", in.s.texts[i], reply.Count)
	}
	return in.resp.Len(), nil
}

func (in *servingInstance) transport(tr *tracer, parent int) error {
	return roundTrip(tr, parent, in.ts)
}

func (in *servingInstance) stats() (server.StatsResponse, error) {
	var st server.StatsResponse
	err := call(in.ts.Client(), http.MethodGet, in.ts.URL+"/v1/stats", nil, &st)
	return st, err
}

func (in *servingInstance) close() { in.ts.Close() }
