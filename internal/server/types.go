package server

import (
	"errors"
	"net/http"

	"repro"
	"repro/internal/fault"
	"repro/internal/ingest"
)

// This file is the wire schema of the gsmd HTTP/JSON API, single-sourced so
// the server handlers, the gsmload client and the cross-validation tests
// marshal exactly the same bytes. docs/SERVER.md documents every type here.

// Node is the wire form of a graph node: the id plus either its data value
// or the SQL-null marker. Marshaling is canonical: a null node always
// serializes as {"id":...,"null":true} with no value field.
type Node struct {
	ID    string `json:"id"`
	Value string `json:"value,omitempty"`
	Null  bool   `json:"null,omitempty"`
}

// Answer is one certain-answer pair on the wire.
type Answer struct {
	From Node `json:"from"`
	To   Node `json:"to"`
}

func nodeWire(n repro.Node) Node {
	if n.Value.IsNull() {
		return Node{ID: string(n.ID), Null: true}
	}
	return Node{ID: string(n.ID), Value: n.Value.Raw()}
}

// AnswersWire converts an answer set to its canonical wire form: sorted by
// (from, to) id, exactly the order and encoding the query endpoints emit.
// gsmload -verify re-marshals both sides with this to compare server
// responses byte-for-byte against the embedded session path.
func AnswersWire(ans *repro.Answers) []Answer {
	sorted := ans.Sorted()
	out := make([]Answer, len(sorted))
	for i, a := range sorted {
		out[i] = Answer{From: nodeWire(a.From), To: nodeWire(a.To)}
	}
	return out
}

// ErrorBody is the JSON body of every non-2xx response: a human-readable
// message plus a stable machine-readable kind (the typed-sentinel name).
type ErrorBody struct {
	Error string `json:"error"`
	Kind  string `json:"kind"`
}

// MappingInfo describes a registered mapping.
type MappingInfo struct {
	Name       string `json:"name"`
	Rules      int    `json:"rules"`
	LAV        bool   `json:"lav"`
	GAV        bool   `json:"gav"`
	Relational bool   `json:"relational"`
}

// GraphInfo describes a registered source graph.
type GraphInfo struct {
	Name  string `json:"name"`
	Nodes int    `json:"nodes"`
	Edges int    `json:"edges"`
}

// RegisterMappingRequest is the body of POST /v1/mappings. Text is the
// line-based mapping format ("rule <src> -> <tgt>" lines).
type RegisterMappingRequest struct {
	Name string `json:"name"`
	Text string `json:"text"`
}

// RegisterGraphRequest is the body of POST /v1/graphs. Text is the
// line-based graph format ("node <id> <value>" / "edge <from> <label> <to>"
// lines).
type RegisterGraphRequest struct {
	Name string `json:"name"`
	Text string `json:"text"`
}

// SessionOptions selects the session budgets and evaluation parameters;
// zero fields keep the server defaults. They map one-to-one onto the facade
// options (repro.WithWorkers, ...); invalid values are ErrBadOptions → 400.
type SessionOptions struct {
	Workers       int `json:"workers,omitempty"`
	ChunkSize     int `json:"chunk_size,omitempty"`
	MaxNulls      int `json:"max_nulls,omitempty"`
	MaxExpansions int `json:"max_expansions,omitempty"`
	MaxChoices    int `json:"max_choices,omitempty"`
	// TimeoutMS bounds every call run under these options; it composes
	// with (and is capped by) the per-request timeout and the server's
	// default timeout.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

func (o SessionOptions) isZero() bool { return o == SessionOptions{} }

// options lowers the wire options onto facade options. Validation happens
// in the facade (ErrBadOptions), not here.
func (o SessionOptions) options() []repro.Option {
	var opts []repro.Option
	if o.Workers != 0 {
		opts = append(opts, repro.WithWorkers(o.Workers))
	}
	if o.ChunkSize != 0 {
		opts = append(opts, repro.WithChunkSize(o.ChunkSize))
	}
	if o.MaxNulls != 0 {
		opts = append(opts, repro.WithMaxNulls(o.MaxNulls))
	}
	if o.MaxExpansions != 0 {
		opts = append(opts, repro.WithMaxExpansions(o.MaxExpansions))
	}
	if o.MaxChoices != 0 {
		opts = append(opts, repro.WithMaxChoices(o.MaxChoices))
	}
	if o.TimeoutMS != 0 {
		opts = append(opts, repro.WithTimeout(millis(o.TimeoutMS)))
	}
	return opts
}

// CreateSessionRequest is the body of POST /v1/sessions.
type CreateSessionRequest struct {
	Mapping string         `json:"mapping"`
	Graph   string         `json:"graph"`
	Options SessionOptions `json:"options"`
}

// SessionInfo describes an open session.
type SessionInfo struct {
	ID      string `json:"id"`
	Tenant  string `json:"tenant"`
	Mapping string `json:"mapping"`
	Graph   string `json:"graph"`
	// Queries and Answers count the calls served and answers returned so
	// far.
	Queries  uint64 `json:"queries"`
	Answers  uint64 `json:"answers"`
	Prepared int    `json:"prepared"`
	// SharedSolution reports whether this session rides an already-warm
	// materialization shared with other sessions on the same (mapping,
	// graph) pair.
	SharedSolution bool `json:"shared_solution"`
}

// PrepareRequest is the body of POST /v1/sessions/{id}/prepare.
type PrepareRequest struct {
	Query string `json:"query"`
	Lang  string `json:"lang,omitempty"` // ree (default), rem, rpq
}

// PrepareResponse returns the handle to pass as QueryRequest.Prepared.
type PrepareResponse struct {
	Prepared string `json:"prepared"`
}

// QueryRequest is the body of POST /v1/sessions/{id}/query and
// /v1/sessions/{id}/stream. Exactly one of Query and Prepared must be set.
type QueryRequest struct {
	Query    string `json:"query,omitempty"`
	Prepared string `json:"prepared,omitempty"`
	Lang     string `json:"lang,omitempty"` // ree (default), rem, rpq
	// Algo selects the certain-answer semantics: "null" (Theorem 4,
	// default), "least" (Theorem 5, equality-only queries), "exact"
	// (Theorem 2 bounded exponential search; honors MaxNulls). Streaming
	// supports null and least.
	Algo string `json:"algo,omitempty"`
	// TimeoutMS bounds this one request; 0 uses the server default.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Options overrides the session's budgets for this request only (a
	// derived session sharing the memoized solutions serves it).
	Options SessionOptions `json:"options"`
}

// QueryResponse is the body of a successful POST /v1/sessions/{id}/query.
type QueryResponse struct {
	Algo      string   `json:"algo"`
	Count     int      `json:"count"`
	Answers   []Answer `json:"answers"`
	ElapsedMS float64  `json:"elapsed_ms"`
}

// OneShotRequest is the body of POST /v1/query: a single certain-answer
// call that builds a fresh session (and thus re-materializes the
// solution) per request. It exists as the amortization baseline the load
// generator compares sessions against — prefer sessions for anything that
// asks twice.
type OneShotRequest struct {
	Mapping string         `json:"mapping"`
	Graph   string         `json:"graph"`
	Query   string         `json:"query"`
	Lang    string         `json:"lang,omitempty"`
	Algo    string         `json:"algo,omitempty"`
	Options SessionOptions `json:"options"`
	// TimeoutMS bounds the request; 0 uses the server default.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// IngestRequest is the body of POST /v1/graphs/{name}/ingest: a
// relational bulk load that lands as a registered graph. Schema is the
// ingest schema text (table/col/fk directives); Tables maps declared
// table names to CSV payloads, header row first. docs/INGEST.md documents
// the schema format and the direct mapping.
type IngestRequest struct {
	Schema string            `json:"schema"`
	Tables map[string]string `json:"tables"`
	// BatchSize is rows per commit batch — the progress-report and
	// snapshot-publication granularity; 0 uses the pipeline default.
	BatchSize int `json:"batch_size,omitempty"`
	// SkipBadRows selects the lenient policy: malformed rows (ragged,
	// uncoercible, duplicate-key, dangling-FK) are counted and skipped
	// instead of aborting the load.
	SkipBadRows bool `json:"skip_bad_rows,omitempty"`
	// TimeoutMS bounds the load; 0 uses the server default.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// IngestReport is the wire form of a completed load's summary.
type IngestReport struct {
	Rows       int64   `json:"rows"`
	Skipped    int64   `json:"skipped"`
	DroppedFKs int64   `json:"dropped_fks"`
	Batches    int     `json:"batches"`
	FullBuilds uint64  `json:"full_builds"`
	ElapsedMS  float64 `json:"elapsed_ms"`
}

// IngestChunk is one NDJSON line of POST /v1/graphs/{name}/ingest: a
// per-batch progress report (Table..Edges), a terminal error, or the
// final done marker carrying the registered graph and the load report.
// Like the query stream, a reader always sees either {"done":true} or
// {"error":...} — never a silent truncation.
type IngestChunk struct {
	Table   string        `json:"table,omitempty"`
	Rows    int64         `json:"rows,omitempty"`
	Skipped int64         `json:"skipped,omitempty"`
	Nodes   int           `json:"nodes,omitempty"`
	Edges   int           `json:"edges,omitempty"`
	Error   string        `json:"error,omitempty"`
	Kind    string        `json:"kind,omitempty"`
	Done    bool          `json:"done,omitempty"`
	Graph   *GraphInfo    `json:"graph,omitempty"`
	Report  *IngestReport `json:"report,omitempty"`
}

// StreamChunk is one NDJSON line of POST /v1/sessions/{id}/stream: either
// an answer, a terminal error, or the final done marker with the total
// count.
type StreamChunk struct {
	Answer *Answer `json:"answer,omitempty"`
	Error  string  `json:"error,omitempty"`
	Kind   string  `json:"kind,omitempty"`
	Done   bool    `json:"done,omitempty"`
	Count  int     `json:"count,omitempty"`
}

// StatsResponse is the body of GET /v1/stats.
type StatsResponse struct {
	Draining        bool   `json:"draining"`
	Mappings        int    `json:"mappings"`
	Graphs          int    `json:"graphs"`
	SessionsOpen    int    `json:"sessions_open"`
	SessionsCreated uint64 `json:"sessions_created"`
	SharedBackends  int    `json:"shared_backends"`
	// IdleBackends counts resident backends with no open sessions — warm
	// state retained for reuse, eligible for LRU eviction under the memory
	// budget. ResidentBytes is the summed byte estimate of all resident
	// backends; MemBudgetBytes echoes the configured budget (0 unlimited)
	// and Evictions counts idle backends reclaimed so far.
	IdleBackends   int    `json:"idle_backends"`
	ResidentBytes  int64  `json:"resident_bytes"`
	MemBudgetBytes int64  `json:"mem_budget_bytes,omitempty"`
	Evictions      uint64 `json:"evictions"`
	// InFlight and Queued are the governor's current admitted and waiting
	// request counts; Tenants breaks admission down per tenant.
	InFlight int           `json:"in_flight"`
	Queued   int           `json:"queued"`
	Tenants  []TenantStats `json:"tenants,omitempty"`
	Requests uint64        `json:"requests"`
	// RejectedOverloaded counts requests shed by the governor (queue full
	// or deadline unmeetable) plus backend creations refused by the memory
	// budget; RejectedRateLimited counts token-bucket refusals.
	RejectedOverloaded  uint64 `json:"rejected_overloaded"`
	RejectedRateLimited uint64 `json:"rejected_rate_limited"`
	RejectedDraining    uint64 `json:"rejected_draining"`
	RejectedDegraded    uint64 `json:"rejected_degraded"`
	Queries             uint64 `json:"queries"`
	Answers             uint64 `json:"answers"`
	Streams             uint64 `json:"streams"`
	OneShots            uint64 `json:"one_shots"`
	Errors              uint64 `json:"errors"`
	Panics              uint64 `json:"panics"`
	// Persistent reports whether a state directory is attached; WALSeq is
	// the last durable registry sequence number and WALWedged whether the
	// log is refusing appends pending a checkpoint or restart.
	Persistent bool   `json:"persistent"`
	WALSeq     uint64 `json:"wal_seq,omitempty"`
	WALWedged  bool   `json:"wal_wedged,omitempty"`
}

// CheckpointResponse is the body of POST /v1/admin/checkpoint: the
// sequence number and registry size the new snapshot covers.
type CheckpointResponse struct {
	Seq      uint64 `json:"seq"`
	Mappings int    `json:"mappings"`
	Graphs   int    `json:"graphs"`
}

// FaultsRequest is the body of POST /v1/admin/faults: an internal/fault
// spec string plus the RNG seed. An empty spec disarms. The endpoint is
// refused unless the server runs with fault injection enabled.
type FaultsRequest struct {
	Spec string `json:"spec"`
	Seed int64  `json:"seed,omitempty"`
}

// FaultsResponse describes the armed fault plan (GET or POST
// /v1/admin/faults).
type FaultsResponse struct {
	Armed  bool                `json:"armed"`
	Spec   string              `json:"spec,omitempty"`
	Seed   int64               `json:"seed,omitempty"`
	Points []fault.PointStatus `json:"points,omitempty"`
}

// HealthResponse is the body of GET /healthz.
type HealthResponse struct {
	Status string `json:"status"` // "ok" or "draining"
}

// StatusClientClosedRequest is the nginx-convention status for requests
// that ended because the client's context was canceled or its deadline
// expired (the facade's ErrCanceled). Go's http package has no name for
// 499.
const StatusClientClosedRequest = 499

// Internal sentinels for conditions that originate in the server rather
// than the evaluation engine; statusKind maps them alongside the facade's
// typed errors.
var (
	errNotFound  = errors.New("not found")
	errExists    = errors.New("already registered with different contents")
	errInUse     = errors.New("in use by open sessions")
	errForbidden = errors.New("not enabled on this server")
)

// statusKind maps an error to its HTTP status and stable wire kind — the
// typed-error → status-code table of docs/SERVER.md. Every handler funnels
// errors through this single place.
func statusKind(err error) (status int, kind string) {
	switch {
	case errors.Is(err, errNotFound):
		return http.StatusNotFound, "not_found"
	case errors.Is(err, errExists):
		return http.StatusConflict, "exists"
	case errors.Is(err, errInUse):
		return http.StatusConflict, "in_use"
	case errors.Is(err, errForbidden):
		return http.StatusForbidden, "forbidden"
	case errors.Is(err, errDegraded):
		return http.StatusServiceUnavailable, "degraded"
	case errors.Is(err, errOverloaded):
		return http.StatusServiceUnavailable, "overloaded"
	case errors.Is(err, errRateLimited):
		return http.StatusTooManyRequests, "rate_limited"
	case errors.Is(err, errStorage):
		return http.StatusServiceUnavailable, "storage_failed"
	case isIngestDataError(err):
		return http.StatusUnprocessableEntity, "bad_data"
	case errors.Is(err, repro.ErrBadOptions):
		return http.StatusBadRequest, "bad_options"
	case errors.Is(err, repro.ErrInfinite):
		return http.StatusUnprocessableEntity, "infinite"
	case errors.Is(err, repro.ErrNoSolution):
		return http.StatusUnprocessableEntity, "no_solution"
	case errors.Is(err, repro.ErrBudgetExceeded):
		return http.StatusTooManyRequests, "budget_exceeded"
	case errors.Is(err, repro.ErrCanceled):
		return StatusClientClosedRequest, "canceled"
	case errors.Is(err, repro.ErrSourceMutated):
		return http.StatusConflict, "source_mutated"
	default:
		return http.StatusInternalServerError, "internal"
	}
}

// isIngestDataError reports whether err is one of internal/ingest's typed
// input errors: malformed source data is the caller's mistake (422
// bad_data), not a server failure, so it must neither 500 nor trip any
// breaker accounting that keys off backend failures.
func isIngestDataError(err error) bool {
	for _, sentinel := range []error{
		ingest.ErrBadSchema, ingest.ErrBadHeader, ingest.ErrBadRow,
		ingest.ErrCoerce, ingest.ErrDuplicatePK, ingest.ErrNullPK,
		ingest.ErrDanglingFK,
	} {
		if errors.Is(err, sentinel) {
			return true
		}
	}
	return false
}
