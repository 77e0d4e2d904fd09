package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/workload"
)

// testScenario is a small deterministic serving scenario shared by the
// server tests.
func testScenario(t testing.TB) workload.ServingScenario {
	t.Helper()
	return workload.Serving(workload.ServingSpec{Nodes: 120, Edges: 360, Queries: 8, Seed: 7})
}

// newTestServer returns a server with the scenario pair registered as
// mapping "m" / graph "g".
func newTestServer(t testing.TB, cfg Config) (*Server, workload.ServingScenario) {
	t.Helper()
	sc := testScenario(t)
	s := New(cfg)
	if _, err := s.RegisterMappingText("m", sc.MappingText); err != nil {
		t.Fatalf("register mapping: %v", err)
	}
	if _, err := s.RegisterGraphText("g", sc.GraphText); err != nil {
		t.Fatalf("register graph: %v", err)
	}
	return s, sc
}

// do runs one request through the handler and decodes the JSON response
// into out (if non-nil), returning the status code.
func do(t testing.TB, h http.Handler, method, path, tenant string, body, out any) int {
	t.Helper()
	var r *http.Request
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		r = httptest.NewRequest(method, path, bytes.NewReader(b))
	} else {
		r = httptest.NewRequest(method, path, nil)
	}
	if tenant != "" {
		r.Header.Set("X-Tenant", tenant)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if out != nil && w.Code/100 == 2 {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: decoding response %q: %v", method, path, w.Body.String(), err)
		}
	}
	return w.Code
}

// errKind decodes an error response body's kind.
func errKind(t testing.TB, h http.Handler, method, path, tenant string, body any) (int, string) {
	t.Helper()
	var r *http.Request
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		r = httptest.NewRequest(method, path, bytes.NewReader(b))
	} else {
		r = httptest.NewRequest(method, path, nil)
	}
	if tenant != "" {
		r.Header.Set("X-Tenant", tenant)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	var eb ErrorBody
	if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil {
		t.Fatalf("%s %s: error body %q: %v", method, path, w.Body.String(), err)
	}
	return w.Code, eb.Kind
}

// TestStatusKind pins the typed-error → HTTP status table of
// docs/SERVER.md.
func TestStatusKind(t *testing.T) {
	cases := []struct {
		err    error
		status int
		kind   string
	}{
		{errNotFound, http.StatusNotFound, "not_found"},
		{errExists, http.StatusConflict, "exists"},
		{repro.ErrBadOptions, http.StatusBadRequest, "bad_options"},
		{repro.ErrInfinite, http.StatusUnprocessableEntity, "infinite"},
		{repro.ErrNoSolution, http.StatusUnprocessableEntity, "no_solution"},
		{repro.ErrBudgetExceeded, http.StatusTooManyRequests, "budget_exceeded"},
		{repro.ErrCanceled, StatusClientClosedRequest, "canceled"},
		{repro.ErrSourceMutated, http.StatusConflict, "source_mutated"},
		{errors.New("boom"), http.StatusInternalServerError, "internal"},
		// Wrapping must not change the mapping.
		{fmt.Errorf("ctx: %w", repro.ErrBudgetExceeded), http.StatusTooManyRequests, "budget_exceeded"},
	}
	for _, c := range cases {
		status, kind := statusKind(c.err)
		if status != c.status || kind != c.kind {
			t.Errorf("statusKind(%v) = %d/%s, want %d/%s", c.err, status, kind, c.status, c.kind)
		}
	}
}

// TestRegistry exercises registration idempotence, conflicts, lookups and
// name validation through the HTTP surface.
func TestRegistry(t *testing.T) {
	s, sc := newTestServer(t, Config{})
	h := s.Handler()

	// Same name, same text: idempotent.
	var mi MappingInfo
	if code := do(t, h, "POST", "/v1/mappings", "", RegisterMappingRequest{Name: "m", Text: sc.MappingText}, &mi); code != 200 {
		t.Fatalf("idempotent re-register: status %d", code)
	}
	if mi.Rules != 3 || !mi.Relational {
		t.Fatalf("mapping info = %+v, want 3 relational rules", mi)
	}
	// Same name, different text: conflict.
	if code, kind := errKind(t, h, "POST", "/v1/mappings", "", RegisterMappingRequest{Name: "m", Text: "rule z -> z\n"}); code != 409 || kind != "exists" {
		t.Fatalf("conflicting re-register: %d/%s, want 409/exists", code, kind)
	}
	// Bad name.
	if code, kind := errKind(t, h, "POST", "/v1/graphs", "", RegisterGraphRequest{Name: "bad name", Text: sc.GraphText}); code != 400 || kind != "bad_options" {
		t.Fatalf("bad name: %d/%s, want 400/bad_options", code, kind)
	}
	// Unparsable text.
	if code, kind := errKind(t, h, "POST", "/v1/graphs", "", RegisterGraphRequest{Name: "g2", Text: "not a graph"}); code != 400 || kind != "bad_options" {
		t.Fatalf("bad graph text: %d/%s, want 400/bad_options", code, kind)
	}
	// Lookups.
	var gi GraphInfo
	if code := do(t, h, "GET", "/v1/graphs/g", "", nil, &gi); code != 200 || gi.Nodes != sc.Graph.NumNodes() {
		t.Fatalf("get graph: status %d info %+v", code, gi)
	}
	if code, kind := errKind(t, h, "GET", "/v1/mappings/nope", "", nil); code != 404 || kind != "not_found" {
		t.Fatalf("missing mapping: %d/%s, want 404/not_found", code, kind)
	}
	var ms []MappingInfo
	if code := do(t, h, "GET", "/v1/mappings", "", nil, &ms); code != 200 || len(ms) != 1 {
		t.Fatalf("list mappings: status %d, %d entries", code, len(ms))
	}
}

// TestQueryMatchesEmbedded runs every scenario query through the server
// (session batch, prepared and one-shot) and compares the canonical wire
// bytes against the embedded repro.Session path — the same
// cross-validation gsmload -verify does over the network.
func TestQueryMatchesEmbedded(t *testing.T) {
	s, sc := newTestServer(t, Config{})
	h := s.Handler()

	cm, err := repro.Compile(sc.Mapping)
	if err != nil {
		t.Fatal(err)
	}
	embedded, err := repro.NewSession(cm, sc.Graph)
	if err != nil {
		t.Fatal(err)
	}

	var si SessionInfo
	if code := do(t, h, "POST", "/v1/sessions", "alice", CreateSessionRequest{Mapping: "m", Graph: "g"}, &si); code != 200 {
		t.Fatalf("create session: status %d", code)
	}
	for i, text := range sc.QueryTexts {
		want, err := embedded.CertainNull(context.Background(), sc.Queries[i])
		if err != nil {
			t.Fatal(err)
		}
		wantBytes, err := json.Marshal(AnswersWire(want))
		if err != nil {
			t.Fatal(err)
		}
		check := func(what, path string, body any) {
			t.Helper()
			var qr QueryResponse
			if code := do(t, h, "POST", path, "alice", body, &qr); code != 200 {
				t.Fatalf("%s %d: status %d", what, i, code)
			}
			gotBytes, err := json.Marshal(qr.Answers)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotBytes, wantBytes) {
				t.Fatalf("%s %d (%q): server answers diverge from embedded session\n got %s\nwant %s",
					what, i, text, gotBytes, wantBytes)
			}
		}

		check("query", "/v1/sessions/"+si.ID+"/query", QueryRequest{Query: text})

		var pr PrepareResponse
		if code := do(t, h, "POST", "/v1/sessions/"+si.ID+"/prepare", "alice", PrepareRequest{Query: text}, &pr); code != 200 {
			t.Fatalf("prepare %d: status %d", i, code)
		}
		check("prepared query", "/v1/sessions/"+si.ID+"/query", QueryRequest{Prepared: pr.Prepared})

		// The one-shot path materializes afresh per request.
		check("one-shot query", "/v1/query", OneShotRequest{Mapping: "m", Graph: "g", Query: text})
	}
}

// TestStreamMatchesBatch pins the NDJSON streaming endpoint to the batch
// endpoint: same answers, same count, terminal done marker.
func TestStreamMatchesBatch(t *testing.T) {
	s, sc := newTestServer(t, Config{})
	h := s.Handler()
	var si SessionInfo
	if code := do(t, h, "POST", "/v1/sessions", "", CreateSessionRequest{Mapping: "m", Graph: "g"}, &si); code != 200 {
		t.Fatalf("create session: status %d", code)
	}
	for i, text := range sc.QueryTexts {
		var qr QueryResponse
		if code := do(t, h, "POST", "/v1/sessions/"+si.ID+"/query", "", QueryRequest{Query: text}, &qr); code != 200 {
			t.Fatalf("batch query %d: status %d", i, code)
		}

		b, _ := json.Marshal(QueryRequest{Query: text})
		r := httptest.NewRequest("POST", "/v1/sessions/"+si.ID+"/stream", bytes.NewReader(b))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if w.Code != 200 {
			t.Fatalf("stream %d: status %d", i, w.Code)
		}
		if ct := w.Header().Get("Content-Type"); ct != "application/x-ndjson" {
			t.Fatalf("stream %d: content type %q", i, ct)
		}
		var streamed []Answer
		done := false
		scanner := bufio.NewScanner(w.Body)
		for scanner.Scan() {
			var chunk StreamChunk
			if err := json.Unmarshal(scanner.Bytes(), &chunk); err != nil {
				t.Fatalf("stream %d: bad NDJSON line %q: %v", i, scanner.Text(), err)
			}
			switch {
			case chunk.Error != "":
				t.Fatalf("stream %d: in-band error %s (%s)", i, chunk.Error, chunk.Kind)
			case chunk.Done:
				done = true
				if chunk.Count != qr.Count {
					t.Fatalf("stream %d: done count %d != batch count %d", i, chunk.Count, qr.Count)
				}
			case chunk.Answer != nil:
				streamed = append(streamed, *chunk.Answer)
			}
		}
		if !done {
			t.Fatalf("stream %d: no done marker", i)
		}
		// Streamed order is evaluation order; compare as canonical sets.
		key := func(a Answer) string { return fmt.Sprintf("%s|%s", a.From.ID, a.To.ID) }
		got := make(map[string]int)
		for _, a := range streamed {
			got[key(a)]++
		}
		want := make(map[string]int)
		for _, a := range qr.Answers {
			want[key(a)]++
		}
		if len(got) != len(want) {
			t.Fatalf("stream %d: %d distinct answers, batch has %d", i, len(got), len(want))
		}
		for k := range want {
			if got[k] == 0 {
				t.Fatalf("stream %d: missing answer %s", i, k)
			}
		}
	}
}

// TestErrorStatuses exercises the error paths end to end through the
// handler: every case must produce the documented status and kind.
func TestErrorStatuses(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxSessionsPerTenant: 1})
	h := s.Handler()

	var si SessionInfo
	if code := do(t, h, "POST", "/v1/sessions", "bob", CreateSessionRequest{Mapping: "m", Graph: "g"}, &si); code != 200 {
		t.Fatalf("create session: status %d", code)
	}

	cases := []struct {
		name         string
		method, path string
		tenant       string
		body         any
		status       int
		kind         string
	}{
		{"missing mapping", "POST", "/v1/sessions", "bob2", CreateSessionRequest{Mapping: "nope", Graph: "g"}, 404, "not_found"},
		{"missing graph", "POST", "/v1/sessions", "bob2", CreateSessionRequest{Mapping: "m", Graph: "nope"}, 404, "not_found"},
		{"tenant session cap", "POST", "/v1/sessions", "bob", CreateSessionRequest{Mapping: "m", Graph: "g"}, 429, "budget_exceeded"},
		{"unknown session", "POST", "/v1/sessions/s-999/query", "bob", QueryRequest{Query: "s"}, 404, "not_found"},
		{"foreign tenant session", "POST", "/v1/sessions/" + si.ID + "/query", "mallory", QueryRequest{Query: "s"}, 404, "not_found"},
		{"unknown algo", "POST", "/v1/sessions/" + si.ID + "/query", "bob", QueryRequest{Query: "s", Algo: "magic"}, 400, "bad_options"},
		{"one-shot unknown algo", "POST", "/v1/query", "bob", OneShotRequest{Mapping: "m", Graph: "g", Query: "s", Algo: "magic"}, 400, "bad_options"},
		{"unknown lang", "POST", "/v1/sessions/" + si.ID + "/query", "bob", QueryRequest{Query: "s", Lang: "sparql"}, 400, "bad_options"},
		{"unparsable query", "POST", "/v1/sessions/" + si.ID + "/query", "bob", QueryRequest{Query: "((("}, 400, "bad_options"},
		{"query and prepared", "POST", "/v1/sessions/" + si.ID + "/query", "bob", QueryRequest{Query: "s", Prepared: "p-1"}, 400, "bad_options"},
		{"neither query nor prepared", "POST", "/v1/sessions/" + si.ID + "/query", "bob", QueryRequest{}, 400, "bad_options"},
		{"unknown prepared", "POST", "/v1/sessions/" + si.ID + "/query", "bob", QueryRequest{Prepared: "p-9"}, 404, "not_found"},
		{"bad per-request options", "POST", "/v1/sessions/" + si.ID + "/query", "bob", QueryRequest{Query: "s", Options: SessionOptions{Workers: -1}}, 400, "bad_options"},
		{"stream exact unsupported", "POST", "/v1/sessions/" + si.ID + "/stream", "bob", QueryRequest{Query: "s", Algo: "exact"}, 400, "bad_options"},
		{"bad tenant name", "POST", "/v1/sessions", "bad tenant!", CreateSessionRequest{Mapping: "m", Graph: "g"}, 400, "bad_options"},
		{"close unknown session", "DELETE", "/v1/sessions/s-999", "bob", nil, 404, "not_found"},
	}
	for _, c := range cases {
		code, kind := errKind(t, h, c.method, c.path, c.tenant, c.body)
		if code != c.status || kind != c.kind {
			t.Errorf("%s: got %d/%s, want %d/%s", c.name, code, kind, c.status, c.kind)
		}
	}

	// Malformed body: raw bytes, not JSON.
	r := httptest.NewRequest("POST", "/v1/sessions/"+si.ID+"/query", strings.NewReader("{not json"))
	r.Header.Set("X-Tenant", "bob")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code != 400 {
		t.Errorf("malformed body: status %d, want 400", w.Code)
	}

	// A request whose context is already canceled surfaces ErrCanceled →
	// 499 (the nginx client-closed-request convention).
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b, _ := json.Marshal(QueryRequest{Query: "s t"})
	r = httptest.NewRequest("POST", "/v1/sessions/"+si.ID+"/query", bytes.NewReader(b)).WithContext(ctx)
	r.Header.Set("X-Tenant", "bob")
	w = httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code != StatusClientClosedRequest {
		t.Errorf("canceled context: status %d, want %d (body %s)", w.Code, StatusClientClosedRequest, w.Body.String())
	}
}

// TestSharedBackends verifies the amortization architecture: sessions on
// the same (mapping, graph) pair share one backend; the backend dies with
// its last session; later sessions report the warm materialization.
func TestSharedBackends(t *testing.T) {
	s, sc := newTestServer(t, Config{})
	h := s.Handler()

	var s1, s2 SessionInfo
	if code := do(t, h, "POST", "/v1/sessions", "t1", CreateSessionRequest{Mapping: "m", Graph: "g"}, &s1); code != 200 {
		t.Fatalf("create s1: status %d", code)
	}
	var qr QueryResponse
	if code := do(t, h, "POST", "/v1/sessions/"+s1.ID+"/query", "t1", QueryRequest{Query: sc.QueryTexts[0]}, &qr); code != 200 {
		t.Fatalf("warm query: status %d", code)
	}
	// A different tenant's session on the same pair: same backend, already
	// warm.
	if code := do(t, h, "POST", "/v1/sessions", "t2", CreateSessionRequest{Mapping: "m", Graph: "g"}, &s2); code != 200 {
		t.Fatalf("create s2: status %d", code)
	}
	if !s2.SharedSolution {
		t.Error("second session on a warm pair should report shared_solution")
	}
	var st StatsResponse
	if code := do(t, h, "GET", "/v1/stats", "", nil, &st); code != 200 {
		t.Fatalf("stats: status %d", code)
	}
	if st.SharedBackends != 1 {
		t.Errorf("shared_backends = %d, want 1 (both sessions on one pair)", st.SharedBackends)
	}
	if st.SessionsOpen != 2 {
		t.Errorf("sessions_open = %d, want 2", st.SessionsOpen)
	}

	// Tenant isolation: t1 sees only its own session.
	var list []SessionInfo
	if code := do(t, h, "GET", "/v1/sessions", "t1", nil, &list); code != 200 || len(list) != 1 || list[0].ID != s1.ID {
		t.Fatalf("t1 session list = %+v (status %d), want exactly s1", list, code)
	}

	// Closing both drops the backend.
	if code := do(t, h, "DELETE", "/v1/sessions/"+s1.ID, "t1", nil, nil); code != 200 {
		t.Fatalf("close s1: status %d", code)
	}
	if code := do(t, h, "DELETE", "/v1/sessions/"+s2.ID, "t2", nil, nil); code != 200 {
		t.Fatalf("close s2: status %d", code)
	}
	if code := do(t, h, "GET", "/v1/stats", "", nil, &st); code != 200 {
		t.Fatalf("stats: status %d", code)
	}
	if st.SharedBackends != 0 || st.SessionsOpen != 0 {
		t.Errorf("after closing all: backends %d sessions %d, want 0/0", st.SharedBackends, st.SessionsOpen)
	}
}

// TestGracefulDrain verifies the shutdown contract: a request admitted
// before BeginDrain completes normally while requests arriving after it are
// refused with 503/draining.
func TestGracefulDrain(t *testing.T) {
	s, sc := newTestServer(t, Config{})

	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.testHookStarted = func(r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/query") {
			once.Do(func() { close(started) })
			<-release
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var si SessionInfo
	{
		b, _ := json.Marshal(CreateSessionRequest{Mapping: "m", Graph: "g"})
		resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&si); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	// In-flight query, parked inside the hook.
	type result struct {
		code int
		err  error
	}
	resCh := make(chan result, 1)
	go func() {
		b, _ := json.Marshal(QueryRequest{Query: sc.QueryTexts[0]})
		resp, err := http.Post(ts.URL+"/v1/sessions/"+si.ID+"/query", "application/json", bytes.NewReader(b))
		if err != nil {
			resCh <- result{0, err}
			return
		}
		defer resp.Body.Close()
		resCh <- result{resp.StatusCode, nil}
	}()
	<-started

	// Drain. New requests — even health-adjacent ones like stats — are
	// refused immediately.
	s.BeginDrain()
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var eb ErrorBody
	json.NewDecoder(resp.Body).Decode(&eb)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || eb.Kind != "draining" {
		t.Fatalf("request during drain: %d/%s, want 503/draining", resp.StatusCode, eb.Kind)
	}
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health HealthResponse
	json.NewDecoder(hr.Body).Decode(&health)
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable || health.Status != "draining" {
		t.Fatalf("healthz during drain: %d/%s, want 503/draining", hr.StatusCode, health.Status)
	}

	// The parked in-flight request still completes successfully.
	close(release)
	r := <-resCh
	if r.err != nil || r.code != http.StatusOK {
		t.Fatalf("in-flight request during drain: code %d err %v, want 200", r.code, r.err)
	}
	s.WaitIdle()
}

// TestInflightCap verifies the governed admission path: with MaxInFlight=1
// and one request parked in a handler, the next request queues fairly (and
// completes once the slot frees) while a request beyond the tenant's queue
// bound is shed immediately with 503/overloaded and a Retry-After hint.
func TestInflightCap(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxInFlight: 1, MaxQueueDepth: 1})
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.testHookStarted = func(r *http.Request) {
		if r.URL.Path == "/v1/stats" {
			once.Do(func() { close(started) })
			<-release
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	go func() {
		resp, err := http.Get(ts.URL + "/v1/stats")
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-started

	// Second request: occupies the single queue slot and completes after
	// the parked request releases.
	queuedCode := make(chan int, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/mappings")
		if err != nil {
			queuedCode <- -1
			return
		}
		resp.Body.Close()
		queuedCode <- resp.StatusCode
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, queued, _ := s.gov.snapshot(); queued == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// Third request: the tenant's queue is full — shed, not queued.
	resp, err := http.Get(ts.URL + "/v1/mappings")
	if err != nil {
		t.Fatal(err)
	}
	var eb ErrorBody
	json.NewDecoder(resp.Body).Decode(&eb)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || eb.Kind != "overloaded" {
		t.Fatalf("over-queue request: %d/%s, want 503/overloaded", resp.StatusCode, eb.Kind)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After hint")
	}

	close(release)
	if code := <-queuedCode; code != http.StatusOK {
		t.Fatalf("queued request completed with %d, want 200", code)
	}
	s.WaitIdle()
}

// TestMultiTenantHammer hammers one shared registry from many tenants
// concurrently — sessions created, queried (batch + prepared + per-request
// options), listed and closed — and cross-checks every answer count against
// the embedded session. Run with -race this is the data-race gate for the
// serving layer.
func TestMultiTenantHammer(t *testing.T) {
	s, sc := newTestServer(t, Config{})
	h := s.Handler()

	cm, err := repro.Compile(sc.Mapping)
	if err != nil {
		t.Fatal(err)
	}
	embedded, err := repro.NewSession(cm, sc.Graph)
	if err != nil {
		t.Fatal(err)
	}
	wantCount := make([]int, len(sc.Queries))
	for i, q := range sc.Queries {
		ans, err := embedded.CertainNull(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		wantCount[i] = ans.Len()
	}

	const goroutines = 16
	const rounds = 4
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tenant := fmt.Sprintf("tenant-%d", g%5)
			for round := 0; round < rounds; round++ {
				var si SessionInfo
				if code := do(t, h, "POST", "/v1/sessions", tenant, CreateSessionRequest{Mapping: "m", Graph: "g"}, &si); code != 200 {
					errCh <- fmt.Errorf("g%d r%d: create session status %d", g, round, code)
					return
				}
				for i, text := range sc.QueryTexts {
					req := QueryRequest{Query: text}
					if i%2 == 1 {
						// Alternate per-request budget overrides to
						// exercise the derive path under load.
						req.Options = SessionOptions{ChunkSize: 16 + g}
					}
					var qr QueryResponse
					if code := do(t, h, "POST", "/v1/sessions/"+si.ID+"/query", tenant, req, &qr); code != 200 {
						errCh <- fmt.Errorf("g%d r%d q%d: status %d", g, round, i, code)
						return
					}
					if qr.Count != wantCount[i] {
						errCh <- fmt.Errorf("g%d r%d q%d: count %d, want %d", g, round, i, qr.Count, wantCount[i])
						return
					}
				}
				var list []SessionInfo
				if code := do(t, h, "GET", "/v1/sessions", tenant, nil, &list); code != 200 {
					errCh <- fmt.Errorf("g%d r%d: list status %d", g, round, code)
					return
				}
				if code := do(t, h, "DELETE", "/v1/sessions/"+si.ID, tenant, nil, nil); code != 200 {
					errCh <- fmt.Errorf("g%d r%d: close status %d", g, round, code)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	var st StatsResponse
	if code := do(t, h, "GET", "/v1/stats", "", nil, &st); code != 200 {
		t.Fatalf("stats: status %d", code)
	}
	if st.SessionsOpen != 0 {
		t.Errorf("sessions_open = %d after hammer, want 0", st.SessionsOpen)
	}
	if st.SessionsCreated != goroutines*rounds {
		t.Errorf("sessions_created = %d, want %d", st.SessionsCreated, goroutines*rounds)
	}
	if st.Queries != goroutines*rounds*uint64(len(sc.QueryTexts)) {
		t.Errorf("queries = %d, want %d", st.Queries, goroutines*rounds*len(sc.QueryTexts))
	}
}
