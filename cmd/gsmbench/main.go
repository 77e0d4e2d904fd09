// Command gsmbench runs the reproduction experiments E1–E13 (one per paper
// result; see internal/experiments) and prints their tables. The system's
// own serving, ingest and streaming paths are measured by the bench/
// harness and the root package's Go benchmarks, not here.
//
// Usage:
//
//	gsmbench              # run everything, full workloads
//	gsmbench -quick       # shrunken workloads (seconds instead of minutes)
//	gsmbench -exp E6      # a single experiment
//	gsmbench -list        # list experiments
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (E1..E13) or 'all'")
	quick := flag.Bool("quick", false, "shrink workloads for a fast pass")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	all := experiments.All()
	if *list {
		for _, e := range all {
			fmt.Printf("%-4s %s\n", e.ID, e.Name)
		}
		return
	}
	ran := 0
	start := time.Now()
	for _, e := range all {
		if *exp != "all" && e.ID != *exp {
			continue
		}
		ran++
		t0 := time.Now()
		table, err := e.Run(*quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gsmbench: %s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		table.Fprint(os.Stdout)
		fmt.Printf("   (%s completed in %s)\n\n", e.ID, time.Since(t0).Round(time.Millisecond))
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "gsmbench: unknown experiment %q (try -list)\n", *exp)
		os.Exit(1)
	}
	fmt.Printf("ran %d experiment(s) in %s\n", ran, time.Since(start).Round(time.Millisecond))
}
