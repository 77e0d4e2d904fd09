// Package client is the Go client for the gsmd HTTP/JSON API, shared by
// cmd/gsmload, the chaos smoke harness and tests. It adds the retry
// discipline a well-behaved network client owes an overloaded or degraded
// server: capped exponential backoff with seeded jitter, honoring the
// server's Retry-After hints, and an idempotent-only retry policy —
// refusals the server issues before doing work (429 busy, 503
// draining/degraded) are always retryable, while transport errors and 5xx
// responses are retried only for requests that are safe to repeat
// (registrations are idempotent-or-conflict by server contract, queries
// are read-only; session creation is not).
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// Config tunes a Client; zero values take the documented defaults.
type Config struct {
	// Base is the server address: "host:port" or a full "http://..." URL.
	Base string
	// Tenant is sent as X-Tenant on every request ("" = server default).
	Tenant string
	// HTTP is the underlying client. Default: http.DefaultClient.
	HTTP *http.Client
	// MaxAttempts bounds tries per request (first try + retries).
	// Default 5; 1 disables retrying.
	MaxAttempts int
	// BaseBackoff is the first retry delay, doubled per attempt. Default
	// 25ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the delay between attempts (and a server Retry-After
	// is clamped to it, so smoke runs against a draining server fail fast
	// rather than sleeping out the hint). Default 2s.
	MaxBackoff time.Duration
	// Seed makes the backoff jitter deterministic. Default 1.
	Seed int64
}

// Client is a gsmd API client. Safe for concurrent use.
type Client struct {
	cfg  Config
	base string

	mu  sync.Mutex
	rng *rand.Rand

	retries    atomic.Uint64
	transport  atomic.Uint64
	httpErrors atomic.Uint64
}

// New builds a client from cfg.
func New(cfg Config) *Client {
	if cfg.HTTP == nil {
		cfg.HTTP = http.DefaultClient
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 5
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 25 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 2 * time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	base := cfg.Base
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return &Client{
		cfg:  cfg,
		base: strings.TrimRight(base, "/"),
		rng:  rand.New(rand.NewSource(cfg.Seed)),
	}
}

// Retries reports how many retry attempts the client has sent (not
// counting first tries).
func (c *Client) Retries() uint64 { return c.retries.Load() }

// TransportErrors reports how many attempts failed below HTTP (dial,
// reset, EOF).
func (c *Client) TransportErrors() uint64 { return c.transport.Load() }

// HTTPErrors reports how many attempts returned a non-2xx status.
func (c *Client) HTTPErrors() uint64 { return c.httpErrors.Load() }

// APIError is a non-2xx response decoded from the server's error body.
type APIError struct {
	Status int    // HTTP status code
	Kind   string // stable machine-readable kind ("overloaded", "degraded", ...)
	Msg    string // human-readable message

	retryAfter time.Duration // parsed Retry-After hint, 0 if absent
}

func (e *APIError) Error() string {
	return fmt.Sprintf("server error %d (%s): %s", e.Status, e.Kind, e.Msg)
}

// IsStatus reports whether err is an APIError with the given status.
func IsStatus(err error, status int) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Status == status
}

// IsKind reports whether err is an APIError with the given kind.
func IsKind(err error, kind string) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Kind == kind
}

// retryable classifies one failed attempt. Pre-work refusals (429, 503)
// are safe for everyone; other 5xx and transport-level failures only for
// idempotent requests.
func retryable(err error, idem bool) bool {
	var ae *APIError
	if errors.As(err, &ae) {
		switch ae.Status {
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			return true
		default:
			return idem && ae.Status >= 500
		}
	}
	// Transport error: the request may or may not have executed.
	return idem
}

// backoff computes the sleep before the given retry attempt (0-based),
// honoring the server's Retry-After when present: capped exponential with
// ±50% seeded jitter. Doubling stops at MaxBackoff rather than shifting by
// the raw attempt count, which for high MaxAttempts would overflow
// time.Duration to negative and turn the sleep into a busy spin.
func (c *Client) backoff(attempt int, retryAfter time.Duration) time.Duration {
	d := c.cfg.BaseBackoff
	for i := 0; i < attempt && d < c.cfg.MaxBackoff; i++ {
		d *= 2
	}
	if retryAfter > d {
		d = retryAfter
	}
	if d > c.cfg.MaxBackoff {
		d = c.cfg.MaxBackoff
	}
	c.mu.Lock()
	jitter := 0.5 + c.rng.Float64()
	c.mu.Unlock()
	return time.Duration(float64(d) * jitter)
}

// do runs one API call with the retry policy. body nil means no request
// body; out nil discards the response body.
func (c *Client) do(ctx context.Context, method, path string, body, out any, idem bool) error {
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			return fmt.Errorf("encoding %s %s body: %w", method, path, err)
		}
	}
	var lastErr error
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
			var ra time.Duration
			var ae *APIError
			if errors.As(lastErr, &ae) {
				ra = ae.retryAfter
			}
			select {
			case <-ctx.Done():
				return fmt.Errorf("%s %s: %w (last error: %v)", method, path, ctx.Err(), lastErr)
			case <-time.After(c.backoff(attempt-1, ra)):
			}
		}
		lastErr = c.attempt(ctx, method, path, payload, out)
		if lastErr == nil {
			return nil
		}
		if !retryable(lastErr, idem) {
			break
		}
	}
	return fmt.Errorf("%s %s: %w", method, path, lastErr)
}

// attempt sends the request once and decodes the response.
func (c *Client) attempt(ctx context.Context, method, path string, payload []byte, out any) error {
	var rd io.Reader
	if payload != nil {
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if c.cfg.Tenant != "" {
		req.Header.Set("X-Tenant", c.cfg.Tenant)
	}
	resp, err := c.cfg.HTTP.Do(req)
	if err != nil {
		c.transport.Add(1)
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		c.httpErrors.Add(1)
		ae := &APIError{Status: resp.StatusCode, Kind: "unknown"}
		var eb server.ErrorBody
		if json.NewDecoder(resp.Body).Decode(&eb) == nil && eb.Error != "" {
			ae.Kind, ae.Msg = eb.Kind, eb.Error
		}
		if sec, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && sec > 0 {
			ae.retryAfter = time.Duration(sec) * time.Second
		}
		return ae
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// RegisterMapping registers (idempotently) a mapping text under name.
func (c *Client) RegisterMapping(ctx context.Context, name, text string) (server.MappingInfo, error) {
	var info server.MappingInfo
	err := c.do(ctx, http.MethodPost, "/v1/mappings",
		server.RegisterMappingRequest{Name: name, Text: text}, &info, true)
	return info, err
}

// RegisterGraph registers (idempotently) a graph text under name.
func (c *Client) RegisterGraph(ctx context.Context, name, text string) (server.GraphInfo, error) {
	var info server.GraphInfo
	err := c.do(ctx, http.MethodPost, "/v1/graphs",
		server.RegisterGraphRequest{Name: name, Text: text}, &info, true)
	return info, err
}

// CreateSession opens a session. NOT idempotent: a transport failure after
// the server processed the request would leak a session, so only pre-work
// refusals (429/503) are retried.
func (c *Client) CreateSession(ctx context.Context, req server.CreateSessionRequest) (server.SessionInfo, error) {
	var info server.SessionInfo
	err := c.do(ctx, http.MethodPost, "/v1/sessions", req, &info, false)
	return info, err
}

// CloseSession closes a session; a 404 (victory by earlier attempt or
// expiry) is reported as-is, callers usually ignore it.
func (c *Client) CloseSession(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/sessions/"+id, nil, nil, true)
}

// Query runs a certain-answer query on a session (read-only, idempotent).
func (c *Client) Query(ctx context.Context, sessionID string, req server.QueryRequest) (server.QueryResponse, error) {
	var resp server.QueryResponse
	err := c.do(ctx, http.MethodPost, "/v1/sessions/"+sessionID+"/query", req, &resp, true)
	return resp, err
}

// Prepare registers a prepared query on a session.
func (c *Client) Prepare(ctx context.Context, sessionID string, req server.PrepareRequest) (server.PrepareResponse, error) {
	var resp server.PrepareResponse
	err := c.do(ctx, http.MethodPost, "/v1/sessions/"+sessionID+"/prepare", req, &resp, true)
	return resp, err
}

// OneShot runs a query on a fresh server-side session (read-only, idempotent).
func (c *Client) OneShot(ctx context.Context, req server.OneShotRequest) (server.QueryResponse, error) {
	var resp server.QueryResponse
	err := c.do(ctx, http.MethodPost, "/v1/query", req, &resp, true)
	return resp, err
}

// Stats fetches /v1/stats.
func (c *Client) Stats(ctx context.Context) (server.StatsResponse, error) {
	var resp server.StatsResponse
	err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &resp, true)
	return resp, err
}

// ArmFaults installs (or, with an empty spec, clears) a fault plan on a
// server running with fault injection enabled.
func (c *Client) ArmFaults(ctx context.Context, spec string, seed int64) (server.FaultsResponse, error) {
	var resp server.FaultsResponse
	err := c.do(ctx, http.MethodPost, "/v1/admin/faults",
		server.FaultsRequest{Spec: spec, Seed: seed}, &resp, true)
	return resp, err
}

// Checkpoint folds the server's WAL into a fresh registry snapshot.
func (c *Client) Checkpoint(ctx context.Context) (server.CheckpointResponse, error) {
	var resp server.CheckpointResponse
	err := c.do(ctx, http.MethodPost, "/v1/admin/checkpoint", nil, &resp, true)
	return resp, err
}
