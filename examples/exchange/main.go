// Data exchange with the three certain-answer algorithms side by side,
// including the approximation gap of Remark 1:
//
//   - CertainExact     — the coNP oracle (intersection over all canonical
//     specializations of the universal solution, Thm 2);
//   - CertainNull      — SQL-null universal solution (Thm 3/4), tractable
//     underapproximation;
//   - CertainLeastInformative — least informative solution (Thm 5), exact
//     for equality-only queries.
//
// The example is engineered so the three disagree in exactly the way the
// paper predicts: a query whose match revisits the same null twice is
// certain (the exact and least-informative algorithms find it) but invisible
// to SQL nulls, because n = n is not true under SQL semantics.
//
// Run with: go run ./examples/exchange
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/ree"
)

func main() {
	ctx := context.Background()

	// Source: a service that monitors itself (self-loop).
	source := repro.NewGraph()
	source.MustAddNode("svc", repro.V("api-gateway"))
	source.MustAddNode("db", repro.V("orders"))
	source.MustAddEdge("svc", "monitors", "svc")
	source.MustAddEdge("svc", "reads", "db")

	// Exchange into a deployment schema: monitoring goes through some probe
	// (unknown), reads through some connection pool (unknown).
	mapping := repro.NewMapping(
		repro.R("monitors", "probes probes"),
		repro.R("reads", "pool pool"),
	)
	fmt.Printf("source:\n%s\nmapping:\n%s\n", source, mapping)
	cm, err := repro.Compile(mapping)
	if err != nil {
		log.Fatal(err)
	}
	// One session answers every query below from the same memoized
	// solutions; the exact search keeps its default budget of 10 nulls.
	session, err := repro.NewSession(cm, source)
	if err != nil {
		log.Fatal(err)
	}

	queries := []string{
		// Certain navigationally.
		"probes probes",
		// The Remark 1 gap: the probe node is the SAME node on both loops
		// around svc, so its value equals itself in every solution — but
		// SQL nulls cannot see it.
		"probes (probes probes)= probes",
		// Equality on endpoints through the pool: svc and db have different
		// values, never certain.
		"(pool pool)=",
		// Inequality on endpoints: certain (values differ in every
		// solution).
		"(pool pool)!=",
	}

	for _, text := range queries {
		q := repro.MustREE(text)
		exact, err := session.CertainExact(ctx, q)
		if err != nil {
			log.Fatal(err)
		}
		null, err := session.CertainNull(ctx, q)
		if err != nil {
			log.Fatal(err)
		}
		li, err := session.CertainLeastInformative(ctx, q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("query %-38s exact=%-28s sql-null=%-28s least-informative=%s\n",
			text, exact, null, li)
		if !null.SubsetOf(exact) {
			log.Fatal("underapproximation violated — this must never happen")
		}
		if ree.IsEqualityOnly(q.Expr()) && !li.Equal(exact) {
			log.Fatal("Theorem 5 violated — this must never happen")
		}
	}
	fmt.Println("\ninvariants held: 2ⁿ ⊆ 2 everywhere; least-informative exact on REE= queries")
}
