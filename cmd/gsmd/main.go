// Command gsmd is the graph-schema-mapping daemon: a long-running
// multi-tenant HTTP/JSON server over the repro facade. It keeps a registry
// of named compiled mappings and source graphs and serves certain-answer
// queries through per-tenant sessions whose memoized solutions are shared
// across requests (see internal/server and docs/SERVER.md).
//
// Usage:
//
//	gsmd -demo                                   # serve the canonical demo pair
//	gsmd -mapping m=rules.txt -graph g=data.txt  # serve files
//	gsmd -addr 127.0.0.1:0 -addr-file addr.txt   # pick a free port, publish it
//
// Mappings and graphs can also be registered at runtime via POST
// /v1/mappings and /v1/graphs. With -state-dir the registry is crash-safe:
// every registration is appended to an fsync'd WAL before it is
// acknowledged, and on boot the registry is rebuilt from the snapshot +
// WAL, tolerating torn tails from a crash mid-append (POST
// /v1/admin/checkpoint folds the WAL into a fresh snapshot). On
// SIGINT/SIGTERM the server drains: new requests are refused with 503
// while in-flight requests run to completion (bounded by -drain-timeout).
//
// -enable-faults opens the POST /v1/admin/faults endpoint (and -faults
// arms a plan at boot) for deterministic fault-injection drills; see
// docs/SERVER.md "Failure semantics".
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/fault"
	"repro/internal/server"
	"repro/internal/workload"
)

// weightList collects repeatable name=weight flags into a map.
type weightList map[string]int

func (l *weightList) String() string { return fmt.Sprint(map[string]int(*l)) }

func (l *weightList) Set(v string) error {
	name, val, ok := strings.Cut(v, "=")
	var w int
	if _, err := fmt.Sscanf(val, "%d", &w); !ok || name == "" || err != nil || w < 1 {
		return fmt.Errorf("want name=weight with weight >= 1, got %q", v)
	}
	if *l == nil {
		*l = weightList{}
	}
	(*l)[name] = w
	return nil
}

// nameFileList collects repeatable name=path flags.
type nameFileList []struct{ name, path string }

func (l *nameFileList) String() string { return fmt.Sprint(*l) }

func (l *nameFileList) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want name=path, got %q", v)
	}
	*l = append(*l, struct{ name, path string }{name, path})
	return nil
}

func main() {
	var mappings, graphs nameFileList
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for a free port)")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening")
	flag.Var(&mappings, "mapping", "register a mapping at startup as name=path (repeatable)")
	flag.Var(&graphs, "graph", "register a source graph at startup as name=path (repeatable)")
	demo := flag.Bool("demo", false, `register the canonical serving scenario as mapping "demo" and graph "demo"`)
	maxInflight := flag.Int("max-inflight", 0, "cap on concurrently served requests (0 = default 256)")
	queueDepth := flag.Int("queue-depth", 0, "per-tenant admission queue bound; excess is shed with 503 (0 = default 64)")
	tenantRPS := flag.Float64("tenant-rps", 0, "per-tenant token-bucket rate limit in requests/second (0 = unlimited)")
	tenantBurst := flag.Int("tenant-burst", 0, "per-tenant token-bucket burst (0 = tenant-rps rounded up)")
	var tenantWeights weightList
	flag.Var(&tenantWeights, "tenant-weight", "admission weight for a tenant as name=weight (repeatable; unlisted tenants weigh 1)")
	memBudget := flag.Int64("mem-budget", 0, "resident-bytes budget for shared backends; idle ones are LRU-evicted over it (0 = unlimited)")
	maxSessions := flag.Int("max-sessions", 0, "cap on open sessions per tenant (0 = default 64)")
	timeout := flag.Duration("timeout", 0, "default per-request timeout (0 = default 30s)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "grace period for in-flight requests on shutdown")
	stateDir := flag.String("state-dir", "", "persist the registry (WAL + snapshot) in this directory; recovered on boot")
	enableFaults := flag.Bool("enable-faults", false, "allow arming fault injection via POST /v1/admin/faults")
	faultSpec := flag.String("faults", "", "fault spec to arm at boot (implies -enable-faults); see internal/fault")
	faultSeed := flag.Int64("fault-seed", 1, "seed for the boot-time fault plan")
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("gsmd: ")

	srv := server.New(server.Config{
		MaxInFlight:          *maxInflight,
		MaxQueueDepth:        *queueDepth,
		TenantRPS:            *tenantRPS,
		TenantBurst:          *tenantBurst,
		TenantWeights:        tenantWeights,
		MemBudgetBytes:       *memBudget,
		MaxSessionsPerTenant: *maxSessions,
		DefaultTimeout:       *timeout,
		EnableFaultInjection: *enableFaults || *faultSpec != "",
	})
	if *memBudget > 0 {
		log.Printf("memory budget: %d bytes (idle backends LRU-evicted)", *memBudget)
	}
	if *tenantRPS > 0 {
		log.Printf("tenant rate limit: %g req/s", *tenantRPS)
	}

	if *stateDir != "" {
		rec, err := srv.OpenState(*stateDir)
		if err != nil {
			log.Fatalf("opening state dir %s: %v", *stateDir, err)
		}
		log.Printf("recovered registry from %s: %d mappings, %d graphs (snapshot seq %d + %d WAL records, seq %d)",
			*stateDir, rec.Mappings, rec.Graphs, rec.SnapshotSeq, rec.WALReplayed, rec.Seq)
		if rec.QuarantinedSnap {
			log.Printf("WARNING: corrupt snapshot quarantined as registry.json.quarantine")
		}
		if rec.QuarantinedWAL {
			log.Printf("WARNING: torn/corrupt WAL tail quarantined as registry.wal.quarantine")
		}
		defer srv.CloseState()
	}
	if *faultSpec != "" {
		if err := fault.Arm(*faultSpec, *faultSeed); err != nil {
			log.Fatalf("arming -faults: %v", err)
		}
		log.Printf("fault injection armed at boot (seed %d): %s", *faultSeed, *faultSpec)
	} else if *enableFaults {
		log.Printf("fault injection enabled (arm via POST /v1/admin/faults)")
	}

	if *demo {
		sc := workload.Serving(workload.ServingSpec{})
		if _, err := srv.RegisterMappingText("demo", sc.MappingText); err != nil {
			log.Fatalf("registering demo mapping: %v", err)
		}
		if _, err := srv.RegisterGraphText("demo", sc.GraphText); err != nil {
			log.Fatalf("registering demo graph: %v", err)
		}
		log.Printf("registered demo pair (%s)", sc)
	}
	for _, m := range mappings {
		text, err := os.ReadFile(m.path)
		if err != nil {
			log.Fatalf("reading mapping %s: %v", m.name, err)
		}
		info, err := srv.RegisterMappingText(m.name, string(text))
		if err != nil {
			log.Fatalf("registering mapping %s: %v", m.name, err)
		}
		log.Printf("registered mapping %s (%d rules)", info.Name, info.Rules)
	}
	for _, g := range graphs {
		text, err := os.ReadFile(g.path)
		if err != nil {
			log.Fatalf("reading graph %s: %v", g.name, err)
		}
		info, err := srv.RegisterGraphText(g.name, string(text))
		if err != nil {
			log.Fatalf("registering graph %s: %v", g.name, err)
		}
		log.Printf("registered graph %s (%d nodes, %d edges)", info.Name, info.Nodes, info.Edges)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("listen %s: %v", *addr, err)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		// Written atomically-enough for the smoke script: the file appears
		// only after the listener is live.
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			log.Fatalf("writing -addr-file: %v", err)
		}
	}
	log.Printf("listening on %s", bound)

	hs := &http.Server{Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		log.Printf("received %s, draining (grace %s)", sig, *drainTimeout)
		// Flip admission first so /healthz and new requests report the
		// drain immediately, then let http.Server.Shutdown wait for the
		// in-flight requests.
		srv.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			log.Fatalf("shutdown: %v", err)
		}
		log.Printf("drained, bye")
	case err := <-errCh:
		log.Fatalf("serve: %v", err)
	}
}
