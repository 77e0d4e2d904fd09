// Virtual data integration (Section 4 of the paper): several independent
// source graphs are integrated against one virtual global schema through a
// LAV mapping, and queries over the global schema are answered with
// certain-answer semantics — without ever materialising the global graph
// for users (we materialise the universal solution internally, which is
// exactly what Theorem 4 licenses).
//
// Scenario: two airline route databases and a train network are integrated
// into a global "reachable-by-transport" schema.
//
// Run with: go run ./examples/integration
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	ctx := context.Background()

	// The sources are kept as one data graph whose edge labels name the
	// source they come from — the paper's "view the source graphs as
	// relations E_a of a virtual graph database G".
	sources := repro.NewGraph()
	for _, city := range []struct{ id, pop string }{
		{"edinburgh", "500k"}, {"london", "9000k"}, {"paris", "2100k"},
		{"lyon", "500k"}, {"glasgow", "600k"},
	} {
		sources.MustAddNode(repro.NodeID(city.id), repro.V(city.pop))
	}
	// airlineA routes.
	sources.MustAddEdge("edinburgh", "airlineA", "london")
	sources.MustAddEdge("london", "airlineA", "paris")
	// airlineB routes.
	sources.MustAddEdge("glasgow", "airlineB", "paris")
	// train segments.
	sources.MustAddEdge("paris", "train", "lyon")
	sources.MustAddEdge("edinburgh", "train", "glasgow")

	// LAV mapping into the global schema: each source relation is a view
	// over the global graph. A flight is a direct 'hop'; a train segment is
	// a 'hop' via some unknown intermediate station (two hops).
	mapping := repro.NewMapping(
		repro.R("airlineA", "hop"),
		repro.R("airlineB", "hop"),
		repro.R("train", "hop hop"),
	)
	fmt.Printf("LAV: %v  GAV: %v  relational: %v\n\n",
		mapping.IsLAV(), mapping.IsGAV(), mapping.IsRelational())
	cm, err := repro.Compile(mapping)
	if err != nil {
		log.Fatal(err)
	}
	session, err := repro.NewSession(cm, sources)
	if err != nil {
		log.Fatal(err)
	}

	// Queries over the global schema, answered with certainty across ALL
	// global graphs consistent with the sources.
	queries := []struct {
		text string
		q    repro.Query
	}{
		{"hop hop (REE)", repro.MustREE("hop hop")},
		{"hop+ between equal-population cities", repro.MustREE("(hop+)=")},
		{"↓x.(hop[x!=])+ (all hops change population)", repro.MustREM("!x.(hop[x!=])+")},
	}
	for _, qq := range queries {
		answers, err := session.CertainNull(ctx, qq.q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("certain(%s):\n", qq.text)
		if answers.Len() == 0 {
			fmt.Println("  (none)")
		}
		for _, a := range answers.Sorted() {
			fmt.Printf("  %s\n", a)
		}
		fmt.Println()
	}

	// The integration view never exposes the nulls: queries landing on the
	// unknown intermediate train stations are not certain.
	answers, err := session.CertainNull(ctx, repro.MustREE("hop"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("certain(single hop) = %s\n", answers)
	fmt.Println("note: train segments contribute no certain single hop — their midpoints are unknown")
}
