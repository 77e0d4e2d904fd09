// Package server is the multi-tenant HTTP/JSON serving layer over the
// repro facade: a registry of named compiled mappings and source graphs,
// per-tenant sessions whose memoized solutions are shared across requests
// (and across tenants querying the same pair), prepared-query reuse,
// chunked streaming responses, and admission control built on the facade's
// typed sentinel errors.
//
// The architecture is three thin layers over repro.Session:
//
//   - a registry: named *repro.CompiledMapping and *repro.Graph entries,
//     registered once, immutable afterwards;
//   - shared backends: one base repro.Session per (mapping, graph) pair,
//     owning the memoized universal/least-informative solutions. Every
//     API-level session — whatever its tenant or budgets — is derived from
//     the pair's backend with Session.Derive, so the expensive artifacts are
//     materialized once per pair, not once per tenant;
//   - API sessions: cheap per-tenant handles (id, derived session, prepared
//     queries, counters) that requests address by id.
//
// Admission control reuses the typed-error vocabulary end to end:
// ErrBadOptions → 400, ErrInfinite/ErrNoSolution → 422, ErrBudgetExceeded →
// 429, ErrCanceled → 499, plus server-level 429 (too many in-flight
// requests) and 503 (draining). See docs/SERVER.md for the full API
// reference and cmd/gsmd for the binary.
package server

import (
	"fmt"
	"log"
	"net/http"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/fault"
)

// Config tunes the server; the zero value means the documented defaults.
type Config struct {
	// MaxInFlight caps concurrently served requests. Excess requests wait
	// in per-tenant queues drained fairly by the resource governor; see
	// MaxQueueDepth. Default 256.
	MaxInFlight int
	// MaxQueueDepth caps each tenant's admission queue: requests beyond it
	// are shed immediately with 503 overloaded and an adaptive Retry-After.
	// Default 64.
	MaxQueueDepth int
	// TenantRPS, when > 0, rate-limits each tenant with a token bucket of
	// TenantRPS tokens per second. Requests over the rate are refused with
	// 429 rate_limited and the refill time as Retry-After, before they can
	// occupy a slot or queue entry. 0 disables rate limiting.
	TenantRPS float64
	// TenantBurst is the token-bucket capacity — how many requests a tenant
	// may issue back-to-back after an idle period. Defaults to TenantRPS
	// rounded up (minimum 1) when rate limiting is on.
	TenantBurst int
	// TenantWeights sets per-tenant admission weights for the governor's
	// deficit-weighted round robin; unlisted tenants weigh 1. Under
	// contention a tenant's slot share is proportional to its weight.
	TenantWeights map[string]int
	// MemBudgetBytes, when > 0, bounds the total estimated resident bytes
	// of shared backends (graphs, materialized solutions, answer caches).
	// Idle backends — those whose sessions have all closed — are retained
	// for reuse and evicted least-recently-used when the budget is
	// exceeded; creating a backend for a NEW (mapping, graph) pair is
	// refused with 503 overloaded when eviction cannot make room, while
	// existing backends keep serving. 0 means unlimited (idle backends are
	// dropped as soon as their last session closes).
	MemBudgetBytes int64
	// MaxSessionsPerTenant caps open sessions per tenant (429/busy on
	// excess). Default 64.
	MaxSessionsPerTenant int
	// DefaultTimeout bounds any query request that does not set its own
	// timeout_ms. Default 30s.
	DefaultTimeout time.Duration
	// MaxBodyBytes caps request bodies (413 beyond it). Default 64 MiB —
	// graph registrations carry whole graphs as text.
	MaxBodyBytes int64
	// BreakerThreshold is the number of consecutive backend failures
	// (panics or internal errors, never client errors) that open a
	// (mapping, graph) pair's circuit breaker. Default 5.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker refuses requests (503
	// degraded, Retry-After) before letting one half-open probe through.
	// Default 2s.
	BreakerCooldown time.Duration
	// EnableFaultInjection exposes POST /v1/admin/faults so clients (the
	// chaos harness) can arm internal/fault points over HTTP. Off by
	// default: production servers refuse remote fault arming with 403.
	EnableFaultInjection bool
	// Logf receives panic stacks and recovery reports. Default log.Printf.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 256
	}
	if c.MaxQueueDepth <= 0 {
		c.MaxQueueDepth = 64
	}
	if c.TenantRPS > 0 && c.TenantBurst <= 0 {
		c.TenantBurst = int(c.TenantRPS + 0.999)
		if c.TenantBurst < 1 {
			c.TenantBurst = 1
		}
	}
	if c.MaxSessionsPerTenant <= 0 {
		c.MaxSessionsPerTenant = 64
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 2 * time.Second
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}

// Server is the serving state: registry, shared backends, API sessions and
// counters. Safe for concurrent use; create with New and expose via
// Handler.
type Server struct {
	cfg      Config
	gov      *governor
	draining atomic.Bool
	reqWG    sync.WaitGroup

	mu       sync.RWMutex
	mappings map[string]*mappingEntry
	graphs   map[string]*graphEntry
	backends map[backendKey]*backend
	sessions map[string]*apiSession
	nextID   uint64
	// persist is the crash-safe registry store, attached by OpenState; nil
	// means the registry is memory-only (the pre-state-dir behavior).
	persist *persister

	stats struct {
		requests            atomic.Uint64
		rejectedOverloaded  atomic.Uint64
		rejectedRateLimited atomic.Uint64
		rejectedDraining    atomic.Uint64
		rejectedDegraded    atomic.Uint64
		evictions           atomic.Uint64
		queries             atomic.Uint64
		answers             atomic.Uint64
		streams             atomic.Uint64
		oneShots            atomic.Uint64
		errors              atomic.Uint64
		panics              atomic.Uint64
		sessionsCreated     atomic.Uint64
	}

	// testHookStarted, when set by tests, runs after a request passes
	// admission and before its handler — the coordination point for the
	// graceful-shutdown tests.
	testHookStarted func(r *http.Request)
}

type mappingEntry struct {
	info MappingInfo
	text string
	cm   *repro.CompiledMapping
}

type graphEntry struct {
	info GraphInfo
	text string
	g    *repro.Graph
}

// backendKey identifies a shared session backend: one per registered
// (mapping, graph) pair.
type backendKey struct{ mapping, graph string }

// backend owns the base session of one (mapping, graph) pair — and
// therefore the pair's memoized solutions. API sessions derive from it and
// hold a reference. When the last reference closes, the backend is dropped
// immediately without a memory budget; with one it is retained idle — its
// warm materialization serves the pair's next session for free — until the
// governor's LRU eviction reclaims its bytes.
type backend struct {
	key  backendKey
	sess *repro.Session
	refs int
	// bytes is the last estimate of the backend's resident size (source
	// graph plus every memoized artifact); lastUsed is when it last served
	// or was created. Both guarded by Server.mu.
	bytes    int64
	lastUsed time.Time
	// warmed flips once any derived session has run a query, so
	// SessionInfo can report whether a new session joins an already-warm
	// materialization.
	warmed atomic.Bool
	// queryCache memoizes parsed query texts ("lang\x00text" →
	// repro.Query) across all sessions on the pair. Compiled queries are
	// immutable and race-free, and reusing the same query identity lets
	// the engine's per-snapshot lowered-program cache hit instead of
	// re-lowering on every request.
	queryCache sync.Map
	// brk is the pair's circuit breaker: consecutive backend failures open
	// it, refusing the pair's requests with 503 degraded until a half-open
	// probe succeeds. Other pairs (and tenants on them) keep serving.
	brk breaker
}

// parseQueryCached resolves query text through the backend's cache.
func (be *backend) parseQueryCached(lang, text string) (repro.Query, error) {
	key := lang + "\x00" + text
	if v, ok := be.queryCache.Load(key); ok {
		return v.(repro.Query), nil
	}
	q, err := parseQuery(lang, text)
	if err != nil {
		return nil, err
	}
	v, _ := be.queryCache.LoadOrStore(key, q)
	return v.(repro.Query), nil
}

// apiSession is one tenant-visible session handle.
type apiSession struct {
	id      string
	tenant  string
	mapping string
	graph   string
	be      *backend
	sess    *repro.Session // derived from be.sess with the session options
	shared  bool           // backend was already warm at creation

	mu       sync.Mutex
	prepared map[string]*repro.PreparedQuery
	nextPrep uint64

	queries atomic.Uint64
	answers atomic.Uint64
}

func (as *apiSession) info() SessionInfo {
	as.mu.Lock()
	nprep := len(as.prepared)
	as.mu.Unlock()
	return SessionInfo{
		ID:             as.id,
		Tenant:         as.tenant,
		Mapping:        as.mapping,
		Graph:          as.graph,
		Queries:        as.queries.Load(),
		Answers:        as.answers.Load(),
		Prepared:       nprep,
		SharedSolution: as.shared,
	}
}

// New returns a server with the given configuration.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		cfg:      cfg,
		gov:      newGovernor(cfg),
		mappings: make(map[string]*mappingEntry),
		graphs:   make(map[string]*graphEntry),
		backends: make(map[backendKey]*backend),
		sessions: make(map[string]*apiSession),
	}
}

// BeginDrain flips the server into draining mode: every subsequent request
// (except /healthz, which reports the state) is refused with 503 while
// requests already admitted run to completion. cmd/gsmd calls this before
// http.Server.Shutdown so load balancers see the drain immediately.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// WaitIdle blocks until every admitted request has completed. Used by
// tests; binaries get the same guarantee from http.Server.Shutdown.
func (s *Server) WaitIdle() { s.reqWG.Wait() }

// nameRE validates registry and tenant names: short, path- and log-safe.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func validName(n string) error {
	if !nameRE.MatchString(n) {
		return fmt.Errorf("%w: name %q (want [A-Za-z0-9][A-Za-z0-9_.-]{0,63})", repro.ErrBadOptions, n)
	}
	return nil
}

// RegisterMappingText parses, compiles and registers a mapping under name.
// Re-registering the same name with identical text is idempotent;
// different text is a conflict (the registry is immutable while in use —
// sessions hold compiled pointers; unused names can be deleted). With a
// state directory attached, the registration is WAL-logged and fsync'd
// before it is acknowledged.
func (s *Server) RegisterMappingText(name, text string) (MappingInfo, error) {
	return s.registerMapping(name, text, true)
}

func (s *Server) registerMapping(name, text string, persist bool) (MappingInfo, error) {
	if err := validName(name); err != nil {
		return MappingInfo{}, err
	}
	m, err := repro.ParseMapping(text)
	if err != nil {
		return MappingInfo{}, fmt.Errorf("%w: mapping text: %v", repro.ErrBadOptions, err)
	}
	cm, err := repro.Compile(m)
	if err != nil {
		return MappingInfo{}, err
	}
	info := MappingInfo{
		Name:       name,
		Rules:      len(cm.Rules()),
		LAV:        cm.IsLAV(),
		GAV:        cm.IsGAV(),
		Relational: cm.IsRelational(),
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.mappings[name]; ok {
		if prev.text == text {
			return prev.info, nil
		}
		return MappingInfo{}, fmt.Errorf("mapping %q: %w", name, errExists)
	}
	// Write-ahead: the op must be durable before the registry admits it.
	if persist && s.persist != nil {
		if _, err := s.persist.append(opMapping, name, text); err != nil {
			return MappingInfo{}, err
		}
	}
	s.mappings[name] = &mappingEntry{info: info, text: text, cm: cm}
	return info, nil
}

// RegisterGraphText parses and registers a source graph under name, with
// the same idempotence and durability rules as RegisterMappingText. The
// graph is owned by the registry and never mutated, so sessions can freeze
// it once and share the snapshot indefinitely.
func (s *Server) RegisterGraphText(name, text string) (GraphInfo, error) {
	return s.registerGraph(name, text, true)
}

func (s *Server) registerGraph(name, text string, persist bool) (GraphInfo, error) {
	if err := validName(name); err != nil {
		return GraphInfo{}, err
	}
	g, err := repro.ParseGraph(text)
	if err != nil {
		return GraphInfo{}, fmt.Errorf("%w: graph text: %v", repro.ErrBadOptions, err)
	}
	info := GraphInfo{Name: name, Nodes: g.NumNodes(), Edges: g.NumEdges()}
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.graphs[name]; ok {
		if prev.text == text {
			return prev.info, nil
		}
		return GraphInfo{}, fmt.Errorf("graph %q: %w", name, errExists)
	}
	if persist && s.persist != nil {
		if _, err := s.persist.append(opGraph, name, text); err != nil {
			return GraphInfo{}, err
		}
	}
	s.graphs[name] = &graphEntry{info: info, text: text, g: g}
	return info, nil
}

// registerGraphObject registers an already-built graph under name — the
// landing step of the ingest endpoint. The graph is rendered to its
// canonical text once, serving both the WAL record (recovery replays it
// through the same parser as client-registered graphs) and the
// idempotence comparison: re-ingesting identical source data lands on the
// identical text and short-circuits, anything else is a 409.
func (s *Server) registerGraphObject(name string, g *repro.Graph) (GraphInfo, error) {
	if err := validName(name); err != nil {
		return GraphInfo{}, err
	}
	text := g.String()
	info := GraphInfo{Name: name, Nodes: g.NumNodes(), Edges: g.NumEdges()}
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.graphs[name]; ok {
		if prev.text == text {
			return prev.info, nil
		}
		return GraphInfo{}, fmt.Errorf("graph %q: %w", name, errExists)
	}
	if s.persist != nil {
		if _, err := s.persist.append(opGraph, name, text); err != nil {
			return GraphInfo{}, err
		}
	}
	s.graphs[name] = &graphEntry{info: info, text: text, g: g}
	return info, nil
}

// DeleteMapping removes a registered mapping. A mapping serving any live
// backend (open sessions reference it) is refused with a conflict; the
// deletion is WAL-logged before it is applied.
func (s *Server) DeleteMapping(name string) (MappingInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.mappings[name]
	if !ok {
		return MappingInfo{}, fmt.Errorf("mapping %q: %w", name, errNotFound)
	}
	for key, be := range s.backends {
		if key.mapping != name {
			continue
		}
		if be.refs > 0 {
			return MappingInfo{}, fmt.Errorf("%w: mapping %q has open sessions", errInUse, name)
		}
		// Idle backend retained for warmth only: drop it with its mapping.
		delete(s.backends, key)
	}
	if s.persist != nil {
		if _, err := s.persist.append(opDeleteMapping, name, ""); err != nil {
			return MappingInfo{}, err
		}
	}
	delete(s.mappings, name)
	return e.info, nil
}

// DeleteGraph removes a registered graph, with the DeleteMapping rules.
func (s *Server) DeleteGraph(name string) (GraphInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.graphs[name]
	if !ok {
		return GraphInfo{}, fmt.Errorf("graph %q: %w", name, errNotFound)
	}
	for key, be := range s.backends {
		if key.graph != name {
			continue
		}
		if be.refs > 0 {
			return GraphInfo{}, fmt.Errorf("%w: graph %q has open sessions", errInUse, name)
		}
		delete(s.backends, key)
	}
	if s.persist != nil {
		if _, err := s.persist.append(opDeleteGraph, name, ""); err != nil {
			return GraphInfo{}, err
		}
	}
	delete(s.graphs, name)
	return e.info, nil
}

// Checkpoint folds the WAL into a fresh registry snapshot: the full
// registry is written atomically, the WAL truncated, and a wedged log (one
// that refused appends after a failed write) is repaired. No-op without a
// state directory.
func (s *Server) Checkpoint() (CheckpointResponse, error) {
	// The registry lock is held across the entire checkpoint — copy, seq
	// capture, snapshot write, and WAL truncation. Mutations append to the
	// WAL under the write lock, so holding the read lock here guarantees no
	// acknowledged op can land between the copy and the truncation and be
	// destroyed with the old WAL while absent from the snapshot. Checkpoints
	// are rare admin operations; stalling registrations for one fsync is the
	// price of the durability contract.
	s.mu.RLock()
	defer s.mu.RUnlock()
	p := s.persist
	if p == nil {
		return CheckpointResponse{}, fmt.Errorf("%w: no state directory attached", repro.ErrBadOptions)
	}
	var snap registrySnapshot
	for name, e := range s.mappings {
		snap.Mappings = append(snap.Mappings, namedText{Name: name, Text: e.text})
	}
	for name, e := range s.graphs {
		snap.Graphs = append(snap.Graphs, namedText{Name: name, Text: e.text})
	}
	p.mu.Lock()
	snap.Seq = p.seq
	p.mu.Unlock()
	sort.Slice(snap.Mappings, func(i, j int) bool { return snap.Mappings[i].Name < snap.Mappings[j].Name })
	sort.Slice(snap.Graphs, func(i, j int) bool { return snap.Graphs[i].Name < snap.Graphs[j].Name })
	if err := p.checkpoint(snap); err != nil {
		return CheckpointResponse{}, err
	}
	return CheckpointResponse{
		Seq:      snap.Seq,
		Mappings: len(snap.Mappings),
		Graphs:   len(snap.Graphs),
	}, nil
}

// CloseState detaches and closes the state directory (used by tests that
// re-open the same directory to simulate a restart). The server keeps
// serving from memory.
func (s *Server) CloseState() error {
	s.mu.Lock()
	p := s.persist
	s.persist = nil
	s.mu.Unlock()
	if p == nil {
		return nil
	}
	return p.close()
}

// listMappings returns the registered mappings sorted by name.
func (s *Server) listMappings() []MappingInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]MappingInfo, 0, len(s.mappings))
	for _, e := range s.mappings {
		out = append(out, e.info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// listGraphs returns the registered graphs sorted by name.
func (s *Server) listGraphs() []GraphInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]GraphInfo, 0, len(s.graphs))
	for _, e := range s.graphs {
		out = append(out, e.info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// createSession opens an API session for tenant over the named pair,
// deriving it from the pair's shared backend (created on first use). The
// per-tenant session cap refuses excess sessions with ErrBudgetExceeded
// (→ 429), the admission-control analogue of a search budget.
func (s *Server) createSession(tenant string, req CreateSessionRequest) (SessionInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	me, ok := s.mappings[req.Mapping]
	if !ok {
		return SessionInfo{}, fmt.Errorf("mapping %q: %w", req.Mapping, errNotFound)
	}
	ge, ok := s.graphs[req.Graph]
	if !ok {
		return SessionInfo{}, fmt.Errorf("graph %q: %w", req.Graph, errNotFound)
	}
	open := 0
	for _, as := range s.sessions {
		if as.tenant == tenant {
			open++
		}
	}
	if open >= s.cfg.MaxSessionsPerTenant {
		return SessionInfo{}, fmt.Errorf("%w: tenant %q already has %d open sessions",
			repro.ErrBudgetExceeded, tenant, open)
	}

	key := backendKey{mapping: req.Mapping, graph: req.Graph}
	be, ok := s.backends[key]
	if !ok {
		// A new pair must fit the memory budget: evict idle backends LRU
		// first, and refuse (503 overloaded) if the resident set is still
		// at the budget — existing backends keep serving untouched.
		if s.cfg.MemBudgetBytes > 0 {
			s.evictForBudgetLocked()
			if resident := s.residentBytesLocked(); resident >= s.cfg.MemBudgetBytes {
				return SessionInfo{}, fmt.Errorf(
					"%w: resident backends hold %d of %d budget bytes and none are idle",
					errOverloaded, resident, s.cfg.MemBudgetBytes)
			}
		}
		// Fault point "server.materialize": backend construction, the
		// moment a (mapping, graph) pair's serving state comes to life.
		if err := fault.Hit("server.materialize"); err != nil {
			return SessionInfo{}, err
		}
		base, err := repro.NewSession(me.cm, ge.g)
		if err != nil {
			return SessionInfo{}, err
		}
		be = &backend{key: key, sess: base, bytes: base.MemoryBytes()}
		be.brk.init(s.cfg.BreakerThreshold, s.cfg.BreakerCooldown)
		s.backends[key] = be
	}
	be.lastUsed = time.Now()
	derived, err := be.sess.Derive(req.Options.options()...)
	if err != nil {
		return SessionInfo{}, err
	}

	s.nextID++
	as := &apiSession{
		id:       fmt.Sprintf("s-%d", s.nextID),
		tenant:   tenant,
		mapping:  req.Mapping,
		graph:    req.Graph,
		be:       be,
		sess:     derived,
		shared:   be.warmed.Load(),
		prepared: make(map[string]*repro.PreparedQuery),
	}
	be.refs++
	s.sessions[as.id] = as
	s.stats.sessionsCreated.Add(1)
	return as.info(), nil
}

// session resolves a tenant's session by id; sessions are tenant-scoped,
// so another tenant's id is indistinguishable from a missing one.
func (s *Server) session(tenant, id string) (*apiSession, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	as, ok := s.sessions[id]
	if !ok || as.tenant != tenant {
		return nil, fmt.Errorf("session %q: %w", id, errNotFound)
	}
	return as, nil
}

// closeSession removes a tenant's session. Without a memory budget the
// shared backend is dropped when its last session closes (the historical
// behavior); with one it is kept idle — warm for the pair's next session —
// and reclaimed by LRU eviction when the budget needs the room.
func (s *Server) closeSession(tenant, id string) (SessionInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	as, ok := s.sessions[id]
	if !ok || as.tenant != tenant {
		return SessionInfo{}, fmt.Errorf("session %q: %w", id, errNotFound)
	}
	delete(s.sessions, id)
	as.be.refs--
	if as.be.refs == 0 {
		if s.cfg.MemBudgetBytes <= 0 {
			delete(s.backends, as.be.key)
		} else {
			s.evictForBudgetLocked()
		}
	}
	return as.info(), nil
}

// noteBackendUsage refreshes a backend's byte estimate and LRU stamp after
// it served a request, then re-enforces the budget: artifacts materialized
// by the request (solutions, answer caches) may have grown the resident set
// past it, in which case idle backends are evicted.
func (s *Server) noteBackendUsage(be *backend) {
	bytes := be.sess.MemoryBytes()
	s.mu.Lock()
	be.bytes = bytes
	be.lastUsed = time.Now()
	s.evictForBudgetLocked()
	s.mu.Unlock()
}

// residentBytesLocked sums the byte estimates of all resident backends.
func (s *Server) residentBytesLocked() int64 {
	var total int64
	for _, be := range s.backends {
		total += be.bytes
	}
	return total
}

// evictForBudgetLocked evicts idle (refcount-zero) backends least recently
// used first until the resident set fits the budget or no idle backend
// remains. Each eviction passes the "govern.evict" fault point; an injected
// failure there stops evicting — the server degrades to refusing new pairs
// rather than corrupting live ones. Evicted pairs re-materialize lazily on
// their next session.
func (s *Server) evictForBudgetLocked() {
	if s.cfg.MemBudgetBytes <= 0 {
		return
	}
	for s.residentBytesLocked() > s.cfg.MemBudgetBytes {
		var victim *backend
		for _, be := range s.backends {
			if be.refs > 0 {
				continue
			}
			if victim == nil || be.lastUsed.Before(victim.lastUsed) {
				victim = be
			}
		}
		if victim == nil {
			return
		}
		// Fault point "govern.evict": one per eviction decision.
		if err := fault.Hit("govern.evict"); err != nil {
			s.cfg.Logf("eviction of backend %s/%s failed: %v", victim.key.mapping, victim.key.graph, err)
			return
		}
		delete(s.backends, victim.key)
		s.stats.evictions.Add(1)
		s.cfg.Logf("evicted idle backend %s/%s (%d bytes)", victim.key.mapping, victim.key.graph, victim.bytes)
	}
}

// listSessions returns the tenant's open sessions sorted by id.
func (s *Server) listSessions(tenant string) []SessionInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := []SessionInfo{}
	for _, as := range s.sessions {
		if as.tenant == tenant {
			out = append(out, as.info())
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// statsSnapshot assembles the /v1/stats body.
func (s *Server) statsSnapshot() StatsResponse {
	s.mu.RLock()
	mappings, graphs := len(s.mappings), len(s.graphs)
	sessions, backends := len(s.sessions), len(s.backends)
	residentBytes := s.residentBytesLocked()
	idleBackends := 0
	for _, be := range s.backends {
		if be.refs == 0 {
			idleBackends++
		}
	}
	p := s.persist
	s.mu.RUnlock()
	inflight, queued, tenants := s.gov.snapshot()
	resp := StatsResponse{
		Draining:            s.draining.Load(),
		Mappings:            mappings,
		Graphs:              graphs,
		SessionsOpen:        sessions,
		SessionsCreated:     s.stats.sessionsCreated.Load(),
		SharedBackends:      backends,
		IdleBackends:        idleBackends,
		ResidentBytes:       residentBytes,
		MemBudgetBytes:      s.cfg.MemBudgetBytes,
		Evictions:           s.stats.evictions.Load(),
		InFlight:            inflight,
		Queued:              queued,
		Tenants:             tenants,
		Requests:            s.stats.requests.Load(),
		RejectedOverloaded:  s.stats.rejectedOverloaded.Load(),
		RejectedRateLimited: s.stats.rejectedRateLimited.Load(),
		RejectedDraining:    s.stats.rejectedDraining.Load(),
		RejectedDegraded:    s.stats.rejectedDegraded.Load(),
		Queries:             s.stats.queries.Load(),
		Answers:             s.stats.answers.Load(),
		Streams:             s.stats.streams.Load(),
		OneShots:            s.stats.oneShots.Load(),
		Errors:              s.stats.errors.Load(),
		Panics:              s.stats.panics.Load(),
	}
	if p != nil {
		p.mu.Lock()
		resp.Persistent = true
		resp.WALSeq = p.seq
		resp.WALWedged = p.wedged
		p.mu.Unlock()
	}
	return resp
}

func millis(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
