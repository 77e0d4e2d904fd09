package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"

	"repro"
	"repro/internal/fault"
	"repro/internal/ingest"
)

// Handler builds the HTTP API. Every endpoint except /healthz runs behind
// the admission wrapper (draining → 503, in-flight cap → 429); tenants are
// identified by the X-Tenant header (default "default") and never see each
// other's sessions.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)

	mux.HandleFunc("GET /v1/stats", s.wrap(s.handleStats))
	mux.HandleFunc("POST /v1/mappings", s.wrap(s.handleRegisterMapping))
	mux.HandleFunc("GET /v1/mappings", s.wrap(s.handleListMappings))
	mux.HandleFunc("GET /v1/mappings/{name}", s.wrap(s.handleGetMapping))
	mux.HandleFunc("POST /v1/graphs", s.wrap(s.handleRegisterGraph))
	mux.HandleFunc("GET /v1/graphs", s.wrap(s.handleListGraphs))
	mux.HandleFunc("GET /v1/graphs/{name}", s.wrap(s.handleGetGraph))
	mux.HandleFunc("POST /v1/graphs/{name}/ingest", s.wrap(s.handleIngest))
	mux.HandleFunc("POST /v1/sessions", s.wrap(s.handleCreateSession))
	mux.HandleFunc("GET /v1/sessions", s.wrap(s.handleListSessions))
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.wrap(s.handleCloseSession))
	mux.HandleFunc("POST /v1/sessions/{id}/prepare", s.wrap(s.handlePrepare))
	mux.HandleFunc("POST /v1/sessions/{id}/query", s.wrap(s.handleQuery))
	mux.HandleFunc("POST /v1/sessions/{id}/stream", s.wrap(s.handleStream))
	mux.HandleFunc("POST /v1/query", s.wrap(s.handleOneShot))
	mux.HandleFunc("DELETE /v1/mappings/{name}", s.wrap(s.handleDeleteMapping))
	mux.HandleFunc("DELETE /v1/graphs/{name}", s.wrap(s.handleDeleteGraph))
	mux.HandleFunc("POST /v1/admin/checkpoint", s.wrap(s.handleCheckpoint))
	mux.HandleFunc("GET /v1/admin/faults", s.wrap(s.handleGetFaults))
	mux.HandleFunc("POST /v1/admin/faults", s.wrap(s.handleArmFaults))
	return mux
}

// statusWriter tracks whether the response header was committed, so the
// panic recovery in wrap knows if it can still write an error body.
type statusWriter struct {
	http.ResponseWriter
	wrote bool
}

func (sw *statusWriter) WriteHeader(status int) {
	sw.wrote = true
	sw.ResponseWriter.WriteHeader(status)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	sw.wrote = true
	return sw.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer so the streaming endpoint keeps
// its chunked flushes through the wrapper.
func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// wrap is the admission and isolation middleware: counts the request,
// refuses new work while draining (503, Retry-After derived from the
// estimated drain time), admits it through the resource governor —
// per-tenant rate limits, weighted-fair queueing under the in-flight cap,
// deadline-aware shedding, all refusals carrying adaptive Retry-After
// hints — tracks in-flight requests for WaitIdle, and converts a handler
// panic into a logged 500 so one request's crash never takes down the
// process or any other tenant's in-flight work.
func (s *Server) wrap(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.stats.requests.Add(1)
		if s.draining.Load() {
			s.stats.rejectedDraining.Add(1)
			w.Header().Set("Retry-After", strconv.Itoa(ceilSeconds(s.gov.drainHint())))
			writeJSON(w, http.StatusServiceUnavailable,
				ErrorBody{Error: "server is draining", Kind: "draining"})
			return
		}
		ten, err := tenant(r)
		if err != nil {
			s.writeError(w, err)
			return
		}
		// The admission wait is bounded by the server's default timeout —
		// the same budget the request's execution gets — so the governor
		// can shed requests whose estimated queue wait already exceeds it.
		actx, acancel := context.WithTimeout(r.Context(), s.cfg.DefaultTimeout)
		release, err := s.gov.admit(actx, ten)
		acancel()
		if err != nil {
			switch {
			case errors.Is(err, errRateLimited):
				s.stats.rejectedRateLimited.Add(1)
			case errors.Is(err, errOverloaded):
				s.stats.rejectedOverloaded.Add(1)
			}
			s.writeError(w, err)
			return
		}
		s.reqWG.Add(1)
		sw := &statusWriter{ResponseWriter: w}
		defer func() {
			if rec := recover(); rec != nil {
				s.stats.panics.Add(1)
				s.stats.errors.Add(1)
				s.cfg.Logf("panic serving %s %s: %v\n%s", r.Method, r.URL.Path, rec, debug.Stack())
				if !sw.wrote {
					writeJSON(sw, http.StatusInternalServerError,
						ErrorBody{Error: fmt.Sprintf("internal panic: %v", rec), Kind: "panic"})
				}
			}
			release()
			s.reqWG.Done()
		}()
		if hook := s.testHookStarted; hook != nil {
			hook(r)
		}
		// Fault point "server.handler": request entry, after admission.
		if err := fault.Hit("server.handler"); err != nil {
			s.writeError(sw, err)
			return
		}
		h(sw, r)
	}
}

// runBackend gates one backend call through the pair's circuit breaker:
// refused while open (503 degraded + Retry-After), failure accounting on
// backend errors and panics (the panic is re-raised for wrap to log),
// streak reset on success. Client errors — bad options, budgets, not
// found, cancellation — are neutral: they never trip the breaker, but they
// also never close it or reset the failure streak, since they carry no
// verdict on backend health (a half-open probe that hits one merely
// releases the probe slot for the next request).
func (s *Server) runBackend(be *backend, fn func() error) error {
	if err := be.brk.allow(); err != nil {
		s.stats.rejectedDegraded.Add(1)
		return err
	}
	completed := false
	defer func() {
		if !completed {
			be.brk.onFailure()
		}
	}()
	err := fn()
	completed = true
	switch {
	case err == nil:
		be.brk.onSuccess()
	case isBackendFailure(err):
		be.brk.onFailure()
	default:
		be.brk.onSkip() // caller mistake, not a backend verdict
	}
	return err
}

// isBackendFailure reports whether an error indicates backend ill-health
// (trips the breaker) rather than a caller mistake: exactly the errors the
// status table maps to 500.
func isBackendFailure(err error) bool {
	status, _ := statusKind(err)
	return status == http.StatusInternalServerError
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, HealthResponse{Status: "draining"})
		return
	}
	writeJSON(w, http.StatusOK, HealthResponse{Status: "ok"})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.statsSnapshot())
}

// tenant extracts and validates the request's tenant.
func tenant(r *http.Request) (string, error) {
	t := r.Header.Get("X-Tenant")
	if t == "" {
		return "default", nil
	}
	if err := validName(t); err != nil {
		return "", fmt.Errorf("%w: X-Tenant %q", repro.ErrBadOptions, t)
	}
	return t, nil
}

func (s *Server) handleRegisterMapping(w http.ResponseWriter, r *http.Request) {
	var req RegisterMappingRequest
	if !s.decode(w, r, &req) {
		return
	}
	info, err := s.RegisterMappingText(req.Name, req.Text)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleListMappings(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.listMappings())
}

func (s *Server) handleGetMapping(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mu.RLock()
	e, ok := s.mappings[name]
	s.mu.RUnlock()
	if !ok {
		s.writeError(w, fmt.Errorf("mapping %q: %w", name, errNotFound))
		return
	}
	writeJSON(w, http.StatusOK, e.info)
}

func (s *Server) handleRegisterGraph(w http.ResponseWriter, r *http.Request) {
	var req RegisterGraphRequest
	if !s.decode(w, r, &req) {
		return
	}
	info, err := s.RegisterGraphText(req.Name, req.Text)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleListGraphs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.listGraphs())
}

func (s *Server) handleGetGraph(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mu.RLock()
	e, ok := s.graphs[name]
	s.mu.RUnlock()
	if !ok {
		s.writeError(w, fmt.Errorf("graph %q: %w", name, errNotFound))
		return
	}
	writeJSON(w, http.StatusOK, e.info)
}

// handleIngest streams a relational bulk load into the graph registry:
// the request carries an ingest schema plus per-table CSV payloads, the
// response is NDJSON — one progress chunk per committed batch, then a
// terminal done chunk with the registered GraphInfo and load report, or a
// terminal error chunk. The graph lands (WAL-logged, same durability rule
// as POST /v1/graphs) only after the whole load succeeds; any failure —
// bad data under the strict policy, an injected ingest.commit fault, a
// timeout — leaves the registry untouched.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := validName(name); err != nil {
		s.writeError(w, err)
		return
	}
	var req IngestRequest
	if !s.decode(w, r, &req) {
		return
	}
	schema, err := ingest.ParseSchema(req.Schema)
	if err != nil {
		s.writeError(w, fmt.Errorf("%w: ingest schema: %v", repro.ErrBadOptions, err))
		return
	}
	if len(req.Tables) == 0 {
		s.writeError(w, fmt.Errorf("%w: ingest request carries no table payloads", repro.ErrBadOptions))
		return
	}
	// Sources assemble in schema order so a load is deterministic
	// regardless of JSON map order; a payload table the schema doesn't
	// declare is a caller mistake surfaced before the stream commits.
	srcs := make([]ingest.Source, 0, len(req.Tables))
	for i := range schema.Tables {
		tab := schema.Tables[i].Name
		if text, ok := req.Tables[tab]; ok {
			srcs = append(srcs, ingest.CSVString(tab, text))
		}
	}
	if len(srcs) != len(req.Tables) {
		for tab := range req.Tables {
			if _, ok := schema.Table(tab); !ok {
				s.writeError(w, fmt.Errorf("%w: payload table %q is not in the schema", repro.ErrBadOptions, tab))
				return
			}
		}
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()

	// From here on the 200 header is committed; failures travel in-band
	// as a terminal NDJSON error chunk, the handleStream contract.
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		bw.Flush()
		if flusher != nil {
			flusher.Flush()
		}
	}
	defer func() {
		if rec := recover(); rec != nil {
			enc.Encode(IngestChunk{Error: fmt.Sprintf("internal panic: %v", rec), Kind: "panic"})
			flush()
			panic(rec)
		}
	}()
	fail := func(err error) {
		s.stats.errors.Add(1)
		_, kind := statusKind(err)
		enc.Encode(IngestChunk{Error: err.Error(), Kind: kind})
		flush()
	}
	opts := ingest.Options{
		BatchSize:   req.BatchSize,
		SkipBadRows: req.SkipBadRows,
		// The pipeline invokes Progress from its writer loop, which Load
		// runs on this goroutine — writing to the response here is safe.
		Progress: func(p ingest.Progress) {
			enc.Encode(IngestChunk{Table: p.Table, Rows: p.Rows, Skipped: p.Skipped, Nodes: p.Nodes, Edges: p.Edges})
			flush()
		},
	}
	g, rep, err := ingest.Load(ctx, schema, opts, srcs...)
	if err != nil {
		fail(fmt.Errorf("ingest: %w", err))
		return
	}
	info, err := s.registerGraphObject(name, g)
	if err != nil {
		fail(err)
		return
	}
	enc.Encode(IngestChunk{Done: true, Graph: &info, Report: &IngestReport{
		Rows:        rep.Rows,
		Skipped:     rep.Skipped,
		DroppedFKs:  rep.DroppedFKs,
		Batches:     rep.Batches,
		FullBuilds:  rep.FullBuilds,
		DeltaBuilds: rep.DeltaBuilds,
		ElapsedMS:   float64(rep.Elapsed) / float64(time.Millisecond),
	}})
	flush()
}

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	ten, err := tenant(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	var req CreateSessionRequest
	if !s.decode(w, r, &req) {
		return
	}
	info, err := s.createSession(ten, req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleListSessions(w http.ResponseWriter, r *http.Request) {
	ten, err := tenant(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, s.listSessions(ten))
}

func (s *Server) handleCloseSession(w http.ResponseWriter, r *http.Request) {
	ten, err := tenant(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	info, err := s.closeSession(ten, r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handlePrepare(w http.ResponseWriter, r *http.Request) {
	ten, err := tenant(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	as, err := s.session(ten, r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	var req PrepareRequest
	if !s.decode(w, r, &req) {
		return
	}
	q, err := parseQuery(req.Lang, req.Query)
	if err != nil {
		s.writeError(w, err)
		return
	}
	p := repro.PrepareQuery(q)
	// Bind eagerly: materializes the pair's universal solution (once per
	// backend) and lowers the query onto its snapshot, so the first query
	// against the prepared handle pays nothing. Materialization is a
	// backend call — it runs behind the pair's circuit breaker.
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.DefaultTimeout)
	defer cancel()
	if err := s.runBackend(as.be, func() error { return p.Bind(ctx, as.sess) }); err != nil {
		s.writeError(w, err)
		return
	}
	as.be.warmed.Store(true)
	s.noteBackendUsage(as.be)
	as.mu.Lock()
	as.nextPrep++
	id := fmt.Sprintf("p-%d", as.nextPrep)
	as.prepared[id] = p
	as.mu.Unlock()
	writeJSON(w, http.StatusOK, PrepareResponse{Prepared: id})
}

// resolveQuery turns a QueryRequest into a runnable query: either a
// prepared handle or freshly parsed text.
func (as *apiSession) resolveQuery(req QueryRequest) (repro.Query, error) {
	switch {
	case req.Prepared != "" && req.Query != "":
		return nil, fmt.Errorf("%w: set either query or prepared, not both", repro.ErrBadOptions)
	case req.Prepared != "":
		as.mu.Lock()
		p, ok := as.prepared[req.Prepared]
		as.mu.Unlock()
		if !ok {
			return nil, fmt.Errorf("prepared query %q: %w", req.Prepared, errNotFound)
		}
		return p, nil
	case req.Query != "":
		// Resolve through the backend's parsed-query cache: repeated
		// replays of the same text (the serving hot path) reuse one query
		// identity, so the engine's per-snapshot lowered programs hit too.
		return as.be.parseQueryCached(req.Lang, req.Query)
	default:
		return nil, fmt.Errorf("%w: query text or prepared handle required", repro.ErrBadOptions)
	}
}

// parseQuery compiles query text in the requested language.
func parseQuery(lang, text string) (repro.Query, error) {
	var q repro.Query
	var err error
	switch lang {
	case "ree", "":
		q, err = repro.ParseREE(text)
	case "rem":
		q, err = repro.ParseREM(text)
	case "rpq":
		q, err = repro.ParseRPQ(text)
	default:
		return nil, fmt.Errorf("%w: unknown query language %q (want ree, rem or rpq)", repro.ErrBadOptions, lang)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %s query %q: %v", repro.ErrBadOptions, lang, text, err)
	}
	return q, nil
}

// requestSession returns the session a request should run on: the API
// session's own derived session, or a further per-request derivation when
// the request overrides budgets.
func (as *apiSession) requestSession(req QueryRequest) (*repro.Session, error) {
	if req.Options.isZero() {
		return as.sess, nil
	}
	return as.sess.Derive(req.Options.options()...)
}

// requestContext wraps the HTTP request context with the per-request
// timeout (or the server default). Cancellations — client disconnect,
// deadline — surface from the facade as ErrCanceled → 499.
func (s *Server) requestContext(r *http.Request, timeoutMS int) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		d = millis(timeoutMS)
	}
	return context.WithTimeout(r.Context(), d)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	ten, err := tenant(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	as, err := s.session(ten, r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	var req QueryRequest
	if !s.decode(w, r, &req) {
		return
	}
	q, err := as.resolveQuery(req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	sess, err := as.requestSession(req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()

	start := time.Now()
	var ans *repro.Answers
	err = s.runBackend(as.be, func() error {
		ans, err = certainAnswers(ctx, sess, req.Algo, q)
		return err
	})
	if err != nil {
		s.writeError(w, err)
		return
	}
	as.be.warmed.Store(true)
	s.noteBackendUsage(as.be)
	as.queries.Add(1)
	as.answers.Add(uint64(ans.Len()))
	s.stats.queries.Add(1)
	s.stats.answers.Add(uint64(ans.Len()))
	writeJSON(w, http.StatusOK, QueryResponse{
		Algo:      orDefault(req.Algo, "null"),
		Count:     ans.Len(),
		Answers:   AnswersWire(ans),
		ElapsedMS: float64(time.Since(start)) / float64(time.Millisecond),
	})
}

// certainAnswers runs the batch algorithm a query request names — null
// (the default), least or exact — on sess.
func certainAnswers(ctx context.Context, sess *repro.Session, algo string, q repro.Query) (*repro.Answers, error) {
	switch algo {
	case "null", "":
		return sess.CertainNull(ctx, q)
	case "least":
		return sess.CertainLeastInformative(ctx, q)
	case "exact":
		return sess.CertainExact(ctx, q)
	}
	return nil, fmt.Errorf("%w: unknown algo %q (want null, least or exact)", repro.ErrBadOptions, algo)
}

// streamFlushEvery is how many NDJSON answer lines are buffered between
// flushes on the streaming endpoint.
const streamFlushEvery = 64

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	ten, err := tenant(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	as, err := s.session(ten, r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	var req QueryRequest
	if !s.decode(w, r, &req) {
		return
	}
	q, err := as.resolveQuery(req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	sess, err := as.requestSession(req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()

	if err := as.be.brk.allow(); err != nil {
		s.stats.rejectedDegraded.Add(1)
		s.writeError(w, err)
		return
	}
	var seq func(func(repro.Answer, error) bool)
	switch req.Algo {
	case "null", "":
		seq = sess.CertainNullSeq(ctx, q)
	case "least":
		seq = sess.CertainLeastInformativeSeq(ctx, q)
	default:
		as.be.brk.onSkip() // caller mistake, not a backend verdict
		s.writeError(w, fmt.Errorf("%w: streaming supports algo null or least, not %q",
			repro.ErrBadOptions, req.Algo))
		return
	}

	// From here on the 200 header is committed; evaluation errors travel
	// in-band as a terminal NDJSON error chunk, so a reader always sees
	// either {"done":true} or {"error":...} — never a silent truncation.
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		bw.Flush()
		if flusher != nil {
			flusher.Flush()
		}
	}
	// A panic mid-stream (a handler bug, or an armed panic point) still
	// owes the reader a terminal record: emit it, count the backend
	// failure, then re-raise for wrap to log the stack — the committed 200
	// means wrap's recovery writes no second body.
	defer func() {
		if rec := recover(); rec != nil {
			as.be.brk.onFailure()
			enc.Encode(StreamChunk{Error: fmt.Sprintf("internal panic: %v", rec), Kind: "panic"})
			flush()
			panic(rec)
		}
	}()
	count := 0
	for a, err := range seq {
		if err == nil {
			// Fault point "server.stream": mid-flight, after the header is
			// committed — exercises the terminal-error path of readers.
			err = fault.Hit("server.stream")
		}
		if err != nil {
			_, kind := statusKind(err)
			s.stats.errors.Add(1)
			if isBackendFailure(err) {
				as.be.brk.onFailure()
			} else {
				as.be.brk.onSkip() // client error mid-stream: no health verdict
			}
			enc.Encode(StreamChunk{Error: err.Error(), Kind: kind})
			flush()
			return
		}
		wire := Answer{From: nodeWire(a.From), To: nodeWire(a.To)}
		enc.Encode(StreamChunk{Answer: &wire})
		count++
		if count%streamFlushEvery == 0 {
			flush()
		}
	}
	as.be.brk.onSuccess()
	as.be.warmed.Store(true)
	s.noteBackendUsage(as.be)
	as.queries.Add(1)
	as.answers.Add(uint64(count))
	s.stats.streams.Add(1)
	s.stats.answers.Add(uint64(count))
	enc.Encode(StreamChunk{Done: true, Count: count})
	flush()
}

// handleOneShot is the amortization baseline: a fresh session per
// request, re-materializing the pair's solution every time. It reuses the
// registered compiled mapping, so the measured gap against session queries
// is exactly the solution/materialization reuse.
func (s *Server) handleOneShot(w http.ResponseWriter, r *http.Request) {
	var req OneShotRequest
	if !s.decode(w, r, &req) {
		return
	}
	s.mu.RLock()
	me, okM := s.mappings[req.Mapping]
	ge, okG := s.graphs[req.Graph]
	s.mu.RUnlock()
	if !okM {
		s.writeError(w, fmt.Errorf("mapping %q: %w", req.Mapping, errNotFound))
		return
	}
	if !okG {
		s.writeError(w, fmt.Errorf("graph %q: %w", req.Graph, errNotFound))
		return
	}
	q, err := parseQuery(req.Lang, req.Query)
	if err != nil {
		s.writeError(w, err)
		return
	}
	// A fresh session: nothing memoized, the whole materialization is paid
	// inside this request.
	sess, err := repro.NewSession(me.cm, ge.g, req.Options.options()...)
	if err != nil {
		s.writeError(w, err)
		return
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()

	start := time.Now()
	ans, err := certainAnswers(ctx, sess, req.Algo, q)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.stats.oneShots.Add(1)
	s.stats.answers.Add(uint64(ans.Len()))
	writeJSON(w, http.StatusOK, QueryResponse{
		Algo:      orDefault(req.Algo, "null"),
		Count:     ans.Len(),
		Answers:   AnswersWire(ans),
		ElapsedMS: float64(time.Since(start)) / float64(time.Millisecond),
	})
}

func (s *Server) handleDeleteMapping(w http.ResponseWriter, r *http.Request) {
	info, err := s.DeleteMapping(r.PathValue("name"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleDeleteGraph(w http.ResponseWriter, r *http.Request) {
	info, err := s.DeleteGraph(r.PathValue("name"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	resp, err := s.Checkpoint()
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// faultsResponse snapshots the armed plan for the admin endpoints.
func faultsResponse() FaultsResponse {
	spec, seed, points, ok := fault.Status()
	return FaultsResponse{Armed: ok, Spec: spec, Seed: seed, Points: points}
}

func (s *Server) handleGetFaults(w http.ResponseWriter, r *http.Request) {
	if !s.cfg.EnableFaultInjection {
		s.writeError(w, fmt.Errorf("fault injection: %w", errForbidden))
		return
	}
	writeJSON(w, http.StatusOK, faultsResponse())
}

// handleArmFaults arms (or, with an empty spec, disarms) the process-wide
// fault plan. Only available when the server was started with fault
// injection enabled — this is a chaos-testing surface, not a production
// one.
func (s *Server) handleArmFaults(w http.ResponseWriter, r *http.Request) {
	if !s.cfg.EnableFaultInjection {
		s.writeError(w, fmt.Errorf("fault injection: %w", errForbidden))
		return
	}
	var req FaultsRequest
	if !s.decode(w, r, &req) {
		return
	}
	if err := fault.Arm(req.Spec, req.Seed); err != nil {
		s.writeError(w, fmt.Errorf("%w: %v", repro.ErrBadOptions, err))
		return
	}
	s.cfg.Logf("fault plan armed: %q (seed %d)", req.Spec, req.Seed)
	writeJSON(w, http.StatusOK, faultsResponse())
}

// decode reads a JSON request body, reporting malformed input as 400
// (bad_options). Returns false when it already wrote the error response.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(v); err != nil {
		s.writeError(w, fmt.Errorf("%w: request body: %v", repro.ErrBadOptions, err))
		return false
	}
	return true
}

func (s *Server) writeError(w http.ResponseWriter, err error) {
	s.stats.errors.Add(1)
	status, kind := statusKind(err)
	// Refusals a well-behaved client should back off from carry a
	// Retry-After hint: the breaker's remaining cooldown when one is
	// attached, else one second for the generically-retryable statuses.
	if sec := retryAfterSeconds(err); sec > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(sec))
	} else if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, ErrorBody{Error: err.Error(), Kind: kind})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

// ceilSeconds rounds a duration up to whole seconds, minimum 1 — the
// resolution of the Retry-After header.
func ceilSeconds(d time.Duration) int {
	sec := int((d + time.Second - 1) / time.Second)
	if sec < 1 {
		sec = 1
	}
	return sec
}
