package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/ingest"
)

const ingestTestSchema = `table customer
col customer id int pk
col customer name text
col customer city text null
table orders
col orders id int pk
col orders customer_id int
col orders total float null
fk orders customer_id customer.id
`

const ingestTestCustomers = "id,name,city\n1,alice,paris\n2,bob,\n3,carol,lyon\n"
const ingestTestOrders = "id,customer_id,total\n10,1,19.50\n11,3,\n12,1,7.25\n"

// ingestDo posts one ingest request and parses the NDJSON response into
// chunks; a non-200 returns the status with no chunks.
func ingestDo(t testing.TB, h http.Handler, name string, req IngestRequest) (int, []IngestChunk) {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest("POST", "/v1/graphs/"+name+"/ingest", bytes.NewReader(b))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		return w.Code, nil
	}
	var chunks []IngestChunk
	sc := bufio.NewScanner(w.Body)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var c IngestChunk
		if err := json.Unmarshal([]byte(line), &c); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		chunks = append(chunks, c)
	}
	if len(chunks) == 0 {
		t.Fatalf("ingest stream had no chunks")
	}
	return w.Code, chunks
}

// TestIngestEndpoint drives the full path: CSV payloads stream in as
// NDJSON progress, the graph lands in the registry identical to an
// in-process load, replays are idempotent, conflicting payloads 409 (as a
// terminal chunk), and the landed graph serves certain-answer queries
// over its direct-mapped labels.
func TestIngestEndpoint(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.Handler()
	req := IngestRequest{
		Schema:    ingestTestSchema,
		Tables:    map[string]string{"customer": ingestTestCustomers, "orders": ingestTestOrders},
		BatchSize: 2,
	}
	code, chunks := ingestDo(t, h, "ing", req)
	if code != http.StatusOK {
		t.Fatalf("ingest status %d", code)
	}
	last := chunks[len(chunks)-1]
	if !last.Done || last.Error != "" {
		t.Fatalf("terminal chunk not done: %+v", last)
	}
	if len(chunks) < 2 || chunks[0].Done {
		t.Fatalf("expected progress chunks before the terminal one, got %+v", chunks)
	}
	if chunks[0].Rows == 0 || chunks[0].Table == "" {
		t.Fatalf("first progress chunk empty: %+v", chunks[0])
	}

	// The registered graph must match an in-process load exactly.
	schema, err := ingest.ParseSchema(ingestTestSchema)
	if err != nil {
		t.Fatal(err)
	}
	g, rep, err := ingest.Load(context.Background(), schema, ingest.Options{},
		ingest.CSVString("customer", ingestTestCustomers), ingest.CSVString("orders", ingestTestOrders))
	if err != nil {
		t.Fatal(err)
	}
	if last.Graph == nil || last.Graph.Nodes != g.NumNodes() || last.Graph.Edges != g.NumEdges() {
		t.Fatalf("landed graph %+v, want %d nodes %d edges", last.Graph, g.NumNodes(), g.NumEdges())
	}
	if last.Report == nil || last.Report.Rows != rep.Rows {
		t.Fatalf("report %+v, want %d rows", last.Report, rep.Rows)
	}
	var info GraphInfo
	if code := do(t, h, "GET", "/v1/graphs/ing", "", nil, &info); code != http.StatusOK {
		t.Fatalf("GET landed graph: %d", code)
	}
	if info != *last.Graph {
		t.Fatalf("registry info %+v != terminal chunk %+v", info, *last.Graph)
	}
	s.mu.RLock()
	entry := s.graphs["ing"]
	s.mu.RUnlock()
	if entry.g.String() != g.String() {
		t.Fatalf("registered graph diverged from in-process ingest")
	}

	// Idempotent replay: identical source data short-circuits to the same
	// info; different data for the same name is a conflict, delivered as
	// a terminal error chunk since the load must run before the rendered
	// texts can be compared.
	if _, chunks := ingestDo(t, h, "ing", req); !chunks[len(chunks)-1].Done {
		t.Fatalf("idempotent replay failed: %+v", chunks[len(chunks)-1])
	}
	req2 := req
	req2.Tables = map[string]string{"customer": ingestTestCustomers, "orders": "id,customer_id,total\n99,2,1\n"}
	if _, chunks := ingestDo(t, h, "ing", req2); chunks[len(chunks)-1].Kind != "exists" {
		t.Fatalf("conflicting replay: want kind exists, got %+v", chunks[len(chunks)-1])
	}

	// The landed graph serves queries: a mapping over the direct-mapped
	// FK label turns order placements into certain answers.
	if _, err := s.RegisterMappingText("rel", "rule orders#customer -> placed-by\n"); err != nil {
		t.Fatal(err)
	}
	var sess SessionInfo
	if code := do(t, h, "POST", "/v1/sessions", "", CreateSessionRequest{Mapping: "rel", Graph: "ing"}, &sess); code != http.StatusOK {
		t.Fatalf("create session: %d", code)
	}
	var qr QueryResponse
	if code := do(t, h, "POST", "/v1/sessions/"+sess.ID+"/query", "", QueryRequest{Query: "placed-by", Lang: "rpq"}, &qr); code != http.StatusOK {
		t.Fatalf("query: %d", code)
	}
	if qr.Count != 3 {
		t.Fatalf("placed-by answers = %d, want 3 (one per order)", qr.Count)
	}
}

// TestIngestBadDataPolicies: under the strict policy a malformed row
// aborts the load with a typed terminal chunk and nothing lands; under
// skip-bad-rows the row is counted and the rest of the load lands.
func TestIngestBadDataPolicies(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.Handler()
	bad := "id,name,city\n1,alice,paris\nnope,bob,lyon\n2,carol,\n"
	req := IngestRequest{
		Schema: ingestTestSchema,
		Tables: map[string]string{"customer": bad, "orders": "id,customer_id,total\n10,1,5\n"},
	}
	_, chunks := ingestDo(t, h, "strict", req)
	last := chunks[len(chunks)-1]
	if last.Kind != "bad_data" || !strings.Contains(last.Error, "row 2") {
		t.Fatalf("strict policy: want bad_data at row 2, got %+v", last)
	}
	if code := do(t, h, "GET", "/v1/graphs/strict", "", nil, nil); code != http.StatusNotFound {
		t.Fatalf("failed load landed anyway: GET = %d", code)
	}

	req.SkipBadRows = true
	_, chunks = ingestDo(t, h, "lenient", req)
	last = chunks[len(chunks)-1]
	if !last.Done || last.Report.Skipped != 1 || last.Report.Rows != 3 {
		t.Fatalf("lenient policy: want done with 1 skipped / 3 applied, got %+v", last)
	}
	if code := do(t, h, "GET", "/v1/graphs/lenient", "", nil, nil); code != http.StatusOK {
		t.Fatalf("lenient load did not land: GET = %d", code)
	}
}

// TestIngestRequestValidation covers the failures that must surface as
// regular status codes, before the NDJSON stream commits a 200.
func TestIngestRequestValidation(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.Handler()
	cases := []struct {
		name string
		req  IngestRequest
		kind string
	}{
		{"bad schema", IngestRequest{Schema: "what is this", Tables: map[string]string{"x": "a\n"}}, "bad_options"},
		{"no tables", IngestRequest{Schema: ingestTestSchema}, "bad_options"},
		{"undeclared table", IngestRequest{Schema: ingestTestSchema,
			Tables: map[string]string{"ghosts": "id\n1\n"}}, "bad_options"},
	}
	for _, c := range cases {
		code, kind := errKind(t, h, "POST", "/v1/graphs/v/ingest", "", c.req)
		if code != http.StatusBadRequest || kind != c.kind {
			t.Errorf("%s: got %d/%s, want 400/%s", c.name, code, kind, c.kind)
		}
	}
}

// TestIngestedGraphSurvivesRestart: the ingest landing is WAL-logged like
// any client registration, so a crash after the terminal done chunk must
// recover the graph byte-for-byte on the next boot.
func TestIngestedGraphSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	a := New(Config{})
	if _, err := a.OpenState(dir); err != nil {
		t.Fatalf("OpenState: %v", err)
	}
	req := IngestRequest{
		Schema: ingestTestSchema,
		Tables: map[string]string{"customer": ingestTestCustomers, "orders": ingestTestOrders},
	}
	_, chunks := ingestDo(t, a.Handler(), "durable", req)
	if last := chunks[len(chunks)-1]; !last.Done {
		t.Fatalf("ingest failed: %+v", last)
	}
	a.mu.RLock()
	want := a.graphs["durable"].text
	a.mu.RUnlock()
	if err := a.CloseState(); err != nil {
		t.Fatal(err)
	}

	b := New(Config{})
	rec, err := b.OpenState(dir)
	if err != nil {
		t.Fatalf("recovery OpenState: %v", err)
	}
	if rec.Graphs != 1 {
		t.Fatalf("recovered %d graphs, want 1", rec.Graphs)
	}
	b.mu.RLock()
	entry := b.graphs["durable"]
	b.mu.RUnlock()
	if entry == nil || entry.text != want {
		t.Fatalf("recovered graph text diverged from the ingested one")
	}
	if err := b.CloseState(); err != nil {
		t.Fatal(err)
	}
}

// TestIngestCommitFaultDoesNotLand arms the pipeline's fatal commit fault
// point: the load must fail in-band, the registry must stay untouched,
// and a retry after the plan is exhausted must land normally — the
// recovery contract the chaos drill exercises over a real socket.
func TestIngestCommitFaultDoesNotLand(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.Handler()
	if err := fault.Arm("ingest.commit=error:n=1", 5); err != nil {
		t.Fatal(err)
	}
	defer fault.Disarm()
	req := IngestRequest{
		Schema: ingestTestSchema,
		Tables: map[string]string{"customer": ingestTestCustomers, "orders": ingestTestOrders},
	}
	_, chunks := ingestDo(t, h, "faulty", req)
	last := chunks[len(chunks)-1]
	if last.Done || !strings.Contains(last.Error, "ingest.commit") {
		t.Fatalf("armed commit fault did not surface: %+v", last)
	}
	if code := do(t, h, "GET", "/v1/graphs/faulty", "", nil, nil); code != http.StatusNotFound {
		t.Fatalf("faulted load landed anyway: GET = %d", code)
	}
	// Plan exhausted (n=1): the retry must succeed.
	_, chunks = ingestDo(t, h, "faulty", req)
	if last := chunks[len(chunks)-1]; !last.Done {
		t.Fatalf("retry after fault exhaustion failed: %+v", last)
	}
}

// TestSessionQueryOverIngestedNulls: a NULL cell becomes a null-valued source
// node, which a rule over the cell's column puts into dom(M, Gs). The byte
// estimate the server refreshes after every session query used to panic on
// it (Value.Raw on null), failing the request after its answers were
// computed.
func TestSessionQueryOverIngestedNulls(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	req := IngestRequest{
		Schema: "table customer\ncol customer id int pk\ncol customer city text null\n",
		Tables: map[string]string{"customer": "id,city\n1,paris\n2,\n"},
	}
	if _, chunks := ingestDo(t, h, "nulls", req); !chunks[len(chunks)-1].Done {
		t.Fatalf("ingest did not finish: %+v", chunks[len(chunks)-1])
	}
	if _, err := s.RegisterMappingText("city", "rule customer#city -> located-in\n"); err != nil {
		t.Fatal(err)
	}
	var sess SessionInfo
	if code := do(t, h, "POST", "/v1/sessions", "", CreateSessionRequest{Mapping: "city", Graph: "nulls"}, &sess); code != http.StatusOK {
		t.Fatalf("create session: %d", code)
	}
	var qr QueryResponse
	if code := do(t, h, "POST", "/v1/sessions/"+sess.ID+"/query", "", QueryRequest{Query: "located-in", Lang: "rpq"}, &qr); code != http.StatusOK {
		t.Fatalf("query: %d", code)
	}
	if qr.Count != 1 {
		t.Fatalf("located-in answers = %d, want 1 (the NULL city is a null node)", qr.Count)
	}
	var stats StatsResponse
	if code := do(t, h, "GET", "/v1/stats", "", nil, &stats); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if stats.ResidentBytes <= 0 {
		t.Fatalf("resident_bytes = %d, want > 0", stats.ResidentBytes)
	}
}
