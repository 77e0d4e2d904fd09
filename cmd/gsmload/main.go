// Command gsmload is the load generator for gsmd: N concurrent clients
// replay the canonical serving query stream (internal/workload.Serving)
// against a running server and report p50/p99 latency and answers/sec.
//
// Usage:
//
//	gsmload -addr 127.0.0.1:8080 -clients 100 -n 5000          # session mode
//	gsmload -addr $(cat addr.txt) -n 100 -mode oneshot         # baseline
//	gsmload -addr ... -mode both -verify -json report.json     # session vs oneshot
//	gsmload -addr ... -chaos -verify                           # fault drill
//	gsmload -addr ... -rate 200 -tenant greedy -n 2000         # open-loop overload
//
// With -rate N arrivals are open-loop Poisson at N req/s — they do not
// wait for completions, so offered load is independent of server latency.
// The report then includes offered load vs goodput and the shed rate;
// requests the server refuses with a load-shedding kind (overloaded,
// rate_limited, degraded, draining) are counted as shed, not as errors,
// and only accepted requests enter the latency percentiles. -tenant pins
// every client to one tenant, the building block of fairness drills.
//
// Modes:
//
//   - session: every client opens one server session and replays its share
//     of the stream through it — solutions are materialized once per
//     (mapping, graph) pair and shared by all clients;
//   - oneshot: every request goes through POST /v1/query, which builds a
//     fresh session per call — the amortization baseline;
//   - both: oneshot first, then session, reporting the speedup.
//
// All traffic goes through the shared retrying client
// (internal/server/client): capped exponential backoff with seeded jitter,
// honoring Retry-After, retrying only what is safe to repeat. Failed
// requests are excluded from the latency percentiles and reported as an
// error-rate line instead.
//
// With -verify every server response is compared byte-for-byte against the
// embedded repro.Session path computing the same canonical wire encoding.
// With -chaos the run first arms a fault plan on the server (POST
// /v1/admin/faults; the server must run with -enable-faults) spanning the
// handler, materialization, chase and stream layers, then asserts that
// every response that does come back is still byte-for-byte correct —
// faults may cost availability, never answers.
//
// The scenario pair is registered as mapping "demo" / graph "demo"
// (idempotent, so running against `gsmd -demo` is fine — and a content
// mismatch comes back as 409, which is how a post-crash run detects a
// corrupted registry). Exit codes:
//
//	0  success
//	1  hard failure: registration failed, zero answers, bad flags
//	2  SLO miss: error rate above -max-error-rate
//	3  verification mismatch: a response differed from the embedded answer
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/workload"
)

// The default -chaos plan: errors, panics and latency across three layers
// (HTTP handler, backend materialization/chase/memo in core, stream
// writer). Probabilities are low enough that retries keep the run moving;
// counts bound the brutal modes.
const defaultChaosSpec = "server.handler=error:p=0.02;" +
	"govern.admit=error:p=0.01;" +
	"server.materialize=error:n=2;" +
	"core.chase=error:p=0.3:n=6;" +
	"core.memo=panic:n=2;" +
	"server.stream=latency:p=0.05:ms=2"

// Exit codes (see package comment).
const (
	exitHard     = 1
	exitSLOMiss  = 2
	exitMismatch = 3
)

// report is the -json document for one mode's run.
type report struct {
	Mode     string `json:"mode"`
	Clients  int    `json:"clients"`
	Requests int    `json:"requests"`
	// OK counts requests that succeeded (after retries); only their
	// latencies enter the percentiles.
	OK int `json:"ok"`
	// Shed counts requests the server refused with a load-shedding kind
	// (overloaded, rate_limited, degraded, draining) after retries — the
	// governor doing its job, reported separately from Errors (anything
	// else that failed). Only accepted (OK) requests enter the percentiles.
	Shed       int     `json:"shed"`
	ShedRate   float64 `json:"shed_rate"`
	Errors     int     `json:"errors"`
	ErrorRate  float64 `json:"error_rate"`
	Mismatches int     `json:"mismatches"`
	Answers    int     `json:"answers"`
	Seconds    float64 `json:"seconds"`

	// OfferedPerSec is the achieved arrival rate (open-loop -rate runs
	// only); GoodputPerSec is accepted requests per second.
	OfferedPerSec  float64 `json:"offered_per_sec,omitempty"`
	GoodputPerSec  float64 `json:"goodput_per_sec,omitempty"`
	RequestsPerSec float64 `json:"requests_per_sec"`
	AnswersPerSec  float64 `json:"answers_per_sec"`
	P50MS          float64 `json:"p50_ms"`
	P99MS          float64 `json:"p99_ms"`
}

// fullReport is the top-level -json document.
type fullReport struct {
	Scenario string   `json:"scenario"`
	Chaos    string   `json:"chaos,omitempty"`
	Verified int      `json:"verified"`
	Retries  uint64   `json:"retries"`
	Runs     []report `json:"runs"`
	// Speedup is session answers/sec over oneshot answers/sec, present in
	// -mode both.
	Speedup float64 `json:"speedup,omitempty"`
}

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "gsmd address (host:port)")
	clients := flag.Int("clients", 100, "concurrent clients")
	n := flag.Int("n", 0, "total requests per mode (0 = one stream replay per client)")
	mode := flag.String("mode", "session", "session, oneshot or both")
	queries := flag.Int("queries", 50, "length of the replayed query stream")
	nodes := flag.Int("nodes", 0, "scenario graph nodes (0 = default)")
	seed := flag.Int64("seed", 0, "scenario seed (0 = default)")
	tenants := flag.Int("tenants", 4, "spread clients across this many tenants")
	tenantPin := flag.String("tenant", "", "pin every client to this one tenant (overrides -tenants)")
	rate := flag.Float64("rate", 0, "open-loop Poisson arrival rate in req/s (0 = closed-loop replay)")
	verify := flag.Bool("verify", false, "check every response byte-for-byte against the embedded session path")
	jsonPath := flag.String("json", "", "write a JSON report to this file ('-' = stdout)")
	chaos := flag.Bool("chaos", false, "arm a fault plan on the server before the run (needs gsmd -enable-faults)")
	faults := flag.String("faults", defaultChaosSpec, "fault spec to arm with -chaos")
	faultSeed := flag.Int64("fault-seed", 1, "seed for the armed fault plan")
	retries := flag.Int("retries", 5, "max attempts per request (1 = no retries)")
	maxErrRate := flag.Float64("max-error-rate", -1,
		"fail (exit 2) if a run's error rate exceeds this; -1 = auto (0 normally, 0.5 with -chaos)")
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("gsmload: ")

	sc := workload.Serving(workload.ServingSpec{Nodes: *nodes, Queries: *queries, Seed: *seed})
	total := *n
	if total <= 0 {
		total = *clients * len(sc.QueryTexts)
	}
	if *clients <= 0 || *tenants <= 0 {
		log.Fatalf("-clients and -tenants must be positive")
	}
	if *tenantPin != "" {
		*tenants = 1
	}
	switch *mode {
	case "session", "oneshot", "both":
	default:
		log.Fatalf("unknown -mode %q (want session, oneshot or both)", *mode)
	}
	slo := *maxErrRate
	if slo < 0 {
		if *chaos {
			slo = 0.5
		} else {
			slo = 0
		}
	}

	httpClient := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        2 * *clients,
		MaxIdleConnsPerHost: 2 * *clients,
	}}
	lg := &loadgen{
		sc:      sc,
		clients: *clients,
		total:   total,
		tenants: *tenants,
		rate:    *rate,
		seed:    *faultSeed,
	}
	lg.api = make([]*client.Client, *tenants+1)
	for t := 0; t <= *tenants; t++ {
		tenant := ""
		if t < *tenants {
			tenant = fmt.Sprintf("load-%d", t)
			if *tenantPin != "" {
				tenant = *tenantPin
			}
		}
		lg.api[t] = client.New(client.Config{
			Base:        *addr,
			Tenant:      tenant,
			HTTP:        httpClient,
			MaxAttempts: *retries,
			Seed:        *faultSeed + int64(t),
		})
	}
	admin := lg.api[*tenants] // default tenant, used for register/admin calls

	if *verify {
		if err := lg.buildExpected(); err != nil {
			log.Fatalf("building embedded verification answers: %v", err)
		}
	}
	ctx := context.Background()
	// Register before arming faults: the scenario pair must land cleanly,
	// the drill is about serving, not about losing registrations.
	if err := lg.register(ctx, admin); err != nil {
		log.Fatalf("registering scenario: %v", err)
	}
	if *chaos {
		fr, err := admin.ArmFaults(ctx, *faults, *faultSeed)
		if err != nil {
			log.Fatalf("arming faults (is gsmd running with -enable-faults?): %v", err)
		}
		log.Printf("chaos: armed %d fault points (seed %d): %s", len(fr.Points), *faultSeed, *faults)
	}

	full := fullReport{Scenario: sc.String()}
	if *chaos {
		full.Chaos = *faults
	}
	run := func(m string) report {
		var r report
		if lg.rate > 0 {
			r = lg.runOpen(m)
			log.Printf("%-8s open-loop: offered %.1f req/s, goodput %.1f req/s, shed %d/%d = %.2f%%, p50 %.2fms, p99 %.2fms of accepted (%.2fs)",
				m, r.OfferedPerSec, r.GoodputPerSec, r.Shed, r.Requests, 100*r.ShedRate, r.P50MS, r.P99MS, r.Seconds)
		} else {
			r = lg.run(m)
			log.Printf("%-8s %d clients, %d requests, %d ok: %.0f answers/s, %.0f req/s, p50 %.2fms, p99 %.2fms (%.2fs)",
				m, r.Clients, r.Requests, r.OK, r.AnswersPerSec, r.RequestsPerSec, r.P50MS, r.P99MS, r.Seconds)
		}
		log.Printf("%-8s error rate: %d/%d = %.2f%%, shed %d (%d mismatches)",
			m, r.Errors, r.Requests, 100*r.ErrorRate, r.Shed, r.Mismatches)
		full.Runs = append(full.Runs, r)
		return r
	}
	switch *mode {
	case "session":
		run("session")
	case "oneshot":
		run("oneshot")
	case "both":
		oneshot := run("oneshot")
		session := run("session")
		if oneshot.AnswersPerSec > 0 {
			full.Speedup = session.AnswersPerSec / oneshot.AnswersPerSec
			log.Printf("session/oneshot speedup: %.1fx", full.Speedup)
		}
	}
	if *chaos {
		// Disarm so a shared server is left clean even if the process that
		// armed us is reused.
		if _, err := admin.ArmFaults(ctx, "", 0); err != nil {
			log.Printf("warning: disarming faults: %v", err)
		}
	}
	full.Verified = int(lg.verified.Load())
	for _, c := range lg.api {
		full.Retries += c.Retries()
	}
	if *verify {
		log.Printf("verified %d responses byte-for-byte against the embedded session (%d retries)",
			full.Verified, full.Retries)
	}

	if *jsonPath != "" {
		out, err := json.MarshalIndent(full, "", "  ")
		if err != nil {
			log.Fatalf("encoding report: %v", err)
		}
		out = append(out, '\n')
		if *jsonPath == "-" {
			os.Stdout.Write(out)
		} else if err := os.WriteFile(*jsonPath, out, 0o644); err != nil {
			log.Fatalf("writing report: %v", err)
		}
	}

	// Classify the outcome; the most actionable failure wins the exit code
	// (a mismatch means wrong answers, strictly worse than unavailability).
	exit := 0
	for _, r := range full.Runs {
		if r.Mismatches > 0 {
			log.Printf("FAIL: %s mode had %d verification mismatches", r.Mode, r.Mismatches)
			exit = exitMismatch
		}
	}
	if exit == 0 {
		for _, r := range full.Runs {
			if r.ErrorRate > slo {
				log.Printf("FAIL: %s mode error rate %.2f%% exceeds budget %.2f%%",
					r.Mode, 100*r.ErrorRate, 100*slo)
				exit = exitSLOMiss
			}
		}
	}
	if exit == 0 {
		for _, r := range full.Runs {
			if r.Answers == 0 {
				log.Printf("FAIL: %s mode produced zero answers", r.Mode)
				exit = exitHard
			}
		}
	}
	os.Exit(exit)
}

type loadgen struct {
	sc      workload.ServingScenario
	clients int
	total   int
	tenants int
	// rate, when > 0, selects open-loop Poisson arrivals at this many
	// requests per second; seed makes the arrival process reproducible.
	rate float64
	seed int64
	// api[t] is the retrying client for tenant t; api[tenants] is the
	// default tenant used for registration and admin calls.
	api []*client.Client

	// expected[i] is the canonical wire encoding of query i's answers,
	// computed by the embedded session path (set by -verify).
	expected [][]byte
	verified atomic.Int64
}

// buildExpected computes every query's canonical answer bytes with the
// embedded facade — the same path docs/SERVER.md documents for library use.
func (lg *loadgen) buildExpected() error {
	cm, err := repro.Compile(lg.sc.Mapping)
	if err != nil {
		return err
	}
	sess, err := repro.NewSession(cm, lg.sc.Graph)
	if err != nil {
		return err
	}
	ctx := context.Background()
	lg.expected = make([][]byte, len(lg.sc.Queries))
	for i, q := range lg.sc.Queries {
		ans, err := sess.CertainNull(ctx, q)
		if err != nil {
			return fmt.Errorf("query %d: %w", i, err)
		}
		b, err := json.Marshal(server.AnswersWire(ans))
		if err != nil {
			return err
		}
		lg.expected[i] = b
	}
	return nil
}

// register installs the scenario pair (idempotently) on the server. A 409
// here means the server holds *different* content under the demo names —
// after a crash recovery that is exactly the corruption signal we want
// loud, so it stays fatal.
func (lg *loadgen) register(ctx context.Context, c *client.Client) error {
	if _, err := c.RegisterMapping(ctx, "demo", lg.sc.MappingText); err != nil {
		return fmt.Errorf("mapping: %w", err)
	}
	if _, err := c.RegisterGraph(ctx, "demo", lg.sc.GraphText); err != nil {
		return fmt.Errorf("graph: %w", err)
	}
	return nil
}

// run replays the stream in the given mode and aggregates the results.
func (lg *loadgen) run(mode string) report {
	// latencies[i] is request i's duration, valid only where ok[i] is set:
	// failed requests must not pollute the percentiles (a fast 503 would
	// flatter them, a retried timeout would smear them).
	latencies := make([]time.Duration, lg.total)
	ok := make([]bool, lg.total)
	answers := make([]int, lg.clients)
	errs := make([]int, lg.clients)
	sheds := make([]int, lg.clients)
	mismatches := make([]int, lg.clients)

	var wg sync.WaitGroup
	ctx := context.Background()
	start := time.Now()
	for c := 0; c < lg.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			api := lg.api[c%lg.tenants]
			sessionID := ""
			if mode == "session" {
				si, err := api.CreateSession(ctx, server.CreateSessionRequest{Mapping: "demo", Graph: "demo"})
				if err != nil {
					// Every request this client would have served fails.
					for i := c; i < lg.total; i += lg.clients {
						errs[c]++
					}
					return
				}
				sessionID = si.ID
				defer api.CloseSession(ctx, sessionID)
			}
			// Client c serves requests c, c+clients, c+2*clients, ...; each
			// request i replays query i modulo the stream length.
			for i := c; i < lg.total; i += lg.clients {
				qi := i % len(lg.sc.QueryTexts)
				t0 := time.Now()
				var resp server.QueryResponse
				var err error
				if mode == "session" {
					resp, err = api.Query(ctx, sessionID, server.QueryRequest{Query: lg.sc.QueryTexts[qi]})
				} else {
					resp, err = api.OneShot(ctx, server.OneShotRequest{
						Mapping: "demo", Graph: "demo", Query: lg.sc.QueryTexts[qi]})
				}
				if err != nil {
					if isShed(err) {
						sheds[c]++
					} else {
						errs[c]++
					}
					continue
				}
				latencies[i] = time.Since(t0)
				ok[i] = true
				answers[c] += resp.Count
				if lg.expected != nil {
					got, merr := json.Marshal(resp.Answers)
					if merr != nil || !bytes.Equal(got, lg.expected[qi]) {
						log.Printf("verify mismatch on query %d (%s mode)", qi, mode)
						mismatches[c]++
						continue
					}
					lg.verified.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	r := report{Mode: mode, Clients: lg.clients, Requests: lg.total, Seconds: elapsed.Seconds()}
	for c := 0; c < lg.clients; c++ {
		r.Errors += errs[c]
		r.Shed += sheds[c]
		r.Answers += answers[c]
		r.Mismatches += mismatches[c]
	}
	r.OK = r.Requests - r.Errors - r.Shed
	if r.Requests > 0 {
		r.ErrorRate = float64(r.Errors) / float64(r.Requests)
		r.ShedRate = float64(r.Shed) / float64(r.Requests)
	}
	if elapsed > 0 {
		r.RequestsPerSec = float64(r.OK) / elapsed.Seconds()
		r.AnswersPerSec = float64(r.Answers) / elapsed.Seconds()
	}
	good := latencies[:0]
	for i, d := range latencies {
		if ok[i] {
			good = append(good, d)
		}
	}
	sort.Slice(good, func(i, j int) bool { return good[i] < good[j] })
	r.P50MS = ms(percentile(good, 50))
	r.P99MS = ms(percentile(good, 99))
	return r
}

// isShed reports whether a failed request was refused by the server's load
// shedding (governor, breaker, drain) rather than failing outright: the
// refusal kinds a well-behaved client treats as "come back later".
func isShed(err error) bool {
	for _, kind := range []string{"overloaded", "rate_limited", "busy", "degraded", "draining"} {
		if client.IsKind(err, kind) {
			return true
		}
	}
	return false
}

// runOpen replays the stream with open-loop Poisson arrivals at lg.rate
// requests per second: arrivals do not wait for completions, so offered
// load is independent of server latency — exactly the regime that
// distinguishes a server that sheds crisply from one that collapses.
// Session mode pre-opens one session per client slot; request i runs
// through slot i modulo clients.
func (lg *loadgen) runOpen(mode string) report {
	latencies := make([]time.Duration, lg.total)
	ok := make([]bool, lg.total)
	var answers, errs, sheds, mismatches atomic.Int64

	ctx := context.Background()
	sessions := make([]string, lg.clients)
	if mode == "session" {
		for c := range sessions {
			api := lg.api[c%lg.tenants]
			si, err := api.CreateSession(ctx, server.CreateSessionRequest{Mapping: "demo", Graph: "demo"})
			if err != nil {
				log.Fatalf("opening session for client slot %d: %v", c, err)
			}
			sessions[c] = si.ID
			defer api.CloseSession(ctx, si.ID)
		}
	}

	rng := rand.New(rand.NewSource(lg.seed))
	var wg sync.WaitGroup
	start := time.Now()
	next := start
	for i := 0; i < lg.total; i++ {
		next = next.Add(time.Duration(rng.ExpFloat64() / lg.rate * float64(time.Second)))
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := i % lg.clients
			api := lg.api[c%lg.tenants]
			qi := i % len(lg.sc.QueryTexts)
			t0 := time.Now()
			var resp server.QueryResponse
			var err error
			if mode == "session" {
				resp, err = api.Query(ctx, sessions[c], server.QueryRequest{Query: lg.sc.QueryTexts[qi]})
			} else {
				resp, err = api.OneShot(ctx, server.OneShotRequest{
					Mapping: "demo", Graph: "demo", Query: lg.sc.QueryTexts[qi]})
			}
			if err != nil {
				if isShed(err) {
					sheds.Add(1)
				} else {
					errs.Add(1)
				}
				return
			}
			latencies[i] = time.Since(t0)
			ok[i] = true
			answers.Add(int64(resp.Count))
			if lg.expected != nil {
				got, merr := json.Marshal(resp.Answers)
				if merr != nil || !bytes.Equal(got, lg.expected[qi]) {
					log.Printf("verify mismatch on query %d (%s mode, open loop)", qi, mode)
					mismatches.Add(1)
					return
				}
				lg.verified.Add(1)
			}
		}(i)
	}
	arrivalsDone := time.Since(start)
	wg.Wait()
	elapsed := time.Since(start)

	r := report{
		Mode:       mode,
		Clients:    lg.clients,
		Requests:   lg.total,
		Shed:       int(sheds.Load()),
		Errors:     int(errs.Load()),
		Answers:    int(answers.Load()),
		Mismatches: int(mismatches.Load()),
		Seconds:    elapsed.Seconds(),
	}
	r.OK = r.Requests - r.Errors - r.Shed
	if r.Requests > 0 {
		r.ErrorRate = float64(r.Errors) / float64(r.Requests)
		r.ShedRate = float64(r.Shed) / float64(r.Requests)
	}
	if arrivalsDone > 0 {
		r.OfferedPerSec = float64(r.Requests) / arrivalsDone.Seconds()
	}
	if elapsed > 0 {
		r.GoodputPerSec = float64(r.OK) / elapsed.Seconds()
		r.RequestsPerSec = r.GoodputPerSec
		r.AnswersPerSec = float64(r.Answers) / elapsed.Seconds()
	}
	good := latencies[:0]
	for i, d := range latencies {
		if ok[i] {
			good = append(good, d)
		}
	}
	sort.Slice(good, func(i, j int) bool { return good[i] < good[j] })
	r.P50MS = ms(percentile(good, 50))
	r.P99MS = ms(percentile(good, 99))
	return r
}

func percentile(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := (len(sorted) - 1) * p / 100
	return sorted[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
