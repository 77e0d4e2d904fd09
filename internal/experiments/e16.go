package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"repro"
	"repro/internal/server"
	"repro/internal/workload"
)

// E16Serving measures the multi-tenant HTTP serving layer end to end: an
// in-process gsmd (internal/server over httptest) with the canonical
// serving pair registered, hammered by concurrent clients replaying the
// workload.Serving query stream over real HTTP. The "oneshot" rows issue
// every query through POST /v1/query, which builds a fresh session —
// and thus re-materializes the pair's solution — per request; the
// "session" rows open one server session per client, all of which derive
// from a single shared backend, so the whole run pays for one
// materialization. Every response is cross-validated against the embedded
// repro.Session path computing the same canonical wire encoding.
//
// This is the HTTP-boundary analogue of E15: where E15 amortizes the
// solution across a stream inside one process, E16 shows the same
// amortization surviving the network boundary, tenancy and admission
// control.
func E16Serving(quick bool) (Table, error) {
	t := Table{
		ID:     "E16",
		Title:  "HTTP serving: shared session backends vs per-request sessions",
		Claim:  "serving scenario over HTTP: N clients x Q queries pay for one solution, not NxQ",
		Header: []string{"mode", "clients", "requests", "answers/s", "p50", "p99"},
	}

	spec := workload.ServingSpec{Queries: 50}
	clients, perClient := 16, 25
	if quick {
		spec = workload.ServingSpec{Nodes: 200, Edges: 600, Queries: 8}
		clients, perClient = 4, 4
	}
	sc := workload.Serving(spec)

	// The embedded ground truth: the same canonical wire bytes the server
	// must emit for every query of the stream.
	cm, err := repro.Compile(sc.Mapping)
	if err != nil {
		return t, err
	}
	embedded, err := repro.NewSession(cm, sc.Graph)
	if err != nil {
		return t, err
	}
	expected := make([][]byte, len(sc.Queries))
	for i, q := range sc.Queries {
		ans, err := embedded.CertainNull(context.Background(), q)
		if err != nil {
			return t, err
		}
		if expected[i], err = json.Marshal(server.AnswersWire(ans)); err != nil {
			return t, err
		}
	}

	srv := server.New(server.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * clients}}
	post := func(tenant, path string, body, out any) error {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		req, err := http.NewRequest(http.MethodPost, ts.URL+path, bytes.NewReader(b))
		if err != nil {
			return err
		}
		req.Header.Set("X-Tenant", tenant)
		resp, err := hc.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			var eb server.ErrorBody
			_ = json.NewDecoder(resp.Body).Decode(&eb)
			return fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, eb.Error)
		}
		return json.NewDecoder(resp.Body).Decode(out)
	}
	var reg any
	if err := post("default", "/v1/mappings", server.RegisterMappingRequest{Name: "demo", Text: sc.MappingText}, &reg); err != nil {
		return t, err
	}
	if err := post("default", "/v1/graphs", server.RegisterGraphRequest{Name: "demo", Text: sc.GraphText}, &reg); err != nil {
		return t, err
	}

	run := func(mode string) (row []string, err error) {
		total := clients * perClient
		latencies := make([]time.Duration, total)
		errCh := make(chan error, clients)
		var answers, verified int64
		var mu sync.Mutex
		var wg sync.WaitGroup
		start := time.Now()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				tenant := fmt.Sprintf("t-%d", c%4)
				sessionID := ""
				if mode == "session" {
					var si server.SessionInfo
					if err := post(tenant, "/v1/sessions", server.CreateSessionRequest{Mapping: "demo", Graph: "demo"}, &si); err != nil {
						errCh <- err
						return
					}
					sessionID = si.ID
				}
				for i := 0; i < perClient; i++ {
					ri := c*perClient + i
					qi := ri % len(sc.QueryTexts)
					var resp server.QueryResponse
					var err error
					t0 := time.Now()
					if mode == "session" {
						err = post(tenant, "/v1/sessions/"+sessionID+"/query",
							server.QueryRequest{Query: sc.QueryTexts[qi]}, &resp)
					} else {
						err = post(tenant, "/v1/query", server.OneShotRequest{
							Mapping: "demo", Graph: "demo", Query: sc.QueryTexts[qi]}, &resp)
					}
					latencies[ri] = time.Since(t0)
					if err != nil {
						errCh <- err
						return
					}
					got, err := json.Marshal(resp.Answers)
					if err != nil {
						errCh <- err
						return
					}
					if !bytes.Equal(got, expected[qi]) {
						errCh <- fmt.Errorf("E16: %s answers for query %d diverged from the embedded session", mode, qi)
						return
					}
					mu.Lock()
					answers += int64(resp.Count)
					verified++
					mu.Unlock()
				}
			}(c)
		}
		wg.Wait()
		elapsed := time.Since(start)
		select {
		case err := <-errCh:
			return nil, err
		default:
		}
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		pct := func(p int) time.Duration { return latencies[(len(latencies)-1)*p/100] }
		return []string{
			mode,
			fmt.Sprintf("%d", clients),
			fmt.Sprintf("%d", total),
			fmt.Sprintf("%.0f", float64(answers)/elapsed.Seconds()),
			pct(50).Round(time.Microsecond).String(),
			pct(99).Round(time.Microsecond).String(),
		}, nil
	}

	for _, mode := range []string{"oneshot", "session"} {
		row, err := run(mode)
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"oneshot: POST /v1/query builds a fresh session (full re-materialization) per request;",
		"session: per-client server sessions all derive from one shared backend (one materialization);",
		"every response byte-for-byte equal to the embedded repro.Session wire encoding.")
	return t, nil
}
