// Command gsmbench runs the reproduction experiments E1–E13 (one per paper
// result; see internal/experiments) plus the systems scenarios
// grown on top of them (E14: incremental snapshot maintenance under
// update-heavy streaming workloads; E15: session API amortization over
// query streams; E16: the HTTP serving layer with shared session backends;
// E18: relational bulk ingestion through the direct mapping) and prints
// their tables.
//
// Usage:
//
//	gsmbench              # run everything, full workloads
//	gsmbench -quick       # shrunken workloads (seconds instead of minutes)
//	gsmbench -exp E6      # a single experiment
//	gsmbench -list        # list experiments
//	gsmbench -timeout 30s # stop starting new experiments after the budget
//	gsmbench -json        # machine-readable report on stdout
//
// The -timeout budget is checked between experiments: once it is exhausted
// the remaining experiments are skipped (reported on stdout) and the
// command exits successfully — this is what the CI benchmark smoke job
// relies on to finish in seconds.
//
// With -json the human-readable tables are replaced by one JSON document
// (the tables plus per-experiment wall-clock seconds and run metadata). CI
// archives these as BENCH_*.json artifacts so the perf trajectory of the
// repository accumulates run over run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/experiments"
)

// jsonExperiment is one experiment's table plus its measured wall time.
type jsonExperiment struct {
	experiments.Table
	Seconds float64 `json:"seconds"`
}

// jsonReport is the -json document.
type jsonReport struct {
	Quick        bool             `json:"quick"`
	Timeout      string           `json:"timeout,omitempty"`
	GoVersion    string           `json:"go_version"`
	GOOS         string           `json:"goos"`
	GOARCH       string           `json:"goarch"`
	NumCPU       int              `json:"num_cpu"`
	Ran          int              `json:"ran"`
	Skipped      int              `json:"skipped"`
	TotalSeconds float64          `json:"total_seconds"`
	Experiments  []jsonExperiment `json:"experiments"`
}

func main() {
	exp := flag.String("exp", "all", "experiment id (E1..E16, E18) or 'all'")
	quick := flag.Bool("quick", false, "shrink workloads for a fast pass")
	list := flag.Bool("list", false, "list experiments and exit")
	timeout := flag.Duration("timeout", 0, "wall-clock budget; skip remaining experiments once exceeded (0 = none)")
	asJSON := flag.Bool("json", false, "emit one machine-readable JSON report on stdout instead of tables")
	flag.Parse()

	all := experiments.All()
	if *list {
		for _, e := range all {
			fmt.Printf("%-4s %s\n", e.ID, e.Name)
		}
		return
	}
	ran, skipped := 0, 0
	var results []jsonExperiment
	start := time.Now()
	for _, e := range all {
		if *exp != "all" && e.ID != *exp {
			continue
		}
		if *timeout > 0 && time.Since(start) > *timeout {
			skipped++
			continue
		}
		ran++
		t0 := time.Now()
		table, err := e.Run(*quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gsmbench: %s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		elapsed := time.Since(t0)
		if *asJSON {
			results = append(results, jsonExperiment{Table: table, Seconds: elapsed.Seconds()})
			continue
		}
		table.Fprint(os.Stdout)
		fmt.Printf("   (%s completed in %s)\n\n", e.ID, elapsed.Round(time.Millisecond))
	}
	if ran == 0 && skipped == 0 {
		fmt.Fprintf(os.Stderr, "gsmbench: unknown experiment %q (try -list)\n", *exp)
		os.Exit(1)
	}
	if *asJSON {
		report := jsonReport{
			Quick:        *quick,
			GoVersion:    runtime.Version(),
			GOOS:         runtime.GOOS,
			GOARCH:       runtime.GOARCH,
			NumCPU:       runtime.NumCPU(),
			Ran:          ran,
			Skipped:      skipped,
			TotalSeconds: time.Since(start).Seconds(),
			Experiments:  results,
		}
		if *timeout > 0 {
			report.Timeout = timeout.String()
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintf(os.Stderr, "gsmbench: encoding report: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if skipped > 0 {
		fmt.Printf("skipped %d experiment(s): -timeout %s exhausted\n", skipped, *timeout)
	}
	fmt.Printf("ran %d experiment(s) in %s\n", ran, time.Since(start).Round(time.Millisecond))
}
