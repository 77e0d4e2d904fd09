// Quickstart: the end-to-end data-exchange loop of the paper in ~80 lines.
//
//  1. Build a source data graph (a small social network).
//  2. Declare a relational graph schema mapping (Definition 1 / 3).
//  3. Materialise the universal solution with SQL-null nodes (Section 7).
//  4. Answer a data RPQ over the target with certain-answer semantics
//     (Theorem 4).
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	ctx := context.Background()

	// 1. Source: people with ages, knows/likes edges.
	source := repro.NewGraph()
	source.MustAddNode("ann", repro.V("30"))
	source.MustAddNode("bob", repro.V("25"))
	source.MustAddNode("carl", repro.V("30"))
	source.MustAddNode("post1", repro.V("graphs"))
	source.MustAddEdge("ann", "knows", "bob")
	source.MustAddEdge("bob", "knows", "carl")
	source.MustAddEdge("ann", "likes", "post1")
	source.MustAddEdge("carl", "likes", "post1")

	// 2. Mapping to the target schema: 'knows' becomes a two-hop
	// 'follows·follows' path (the intermediate account is unknown), 'likes'
	// is copied as 'endorses'.
	mapping := repro.NewMapping(
		repro.R("knows", "follows follows"),
		repro.R("likes", "endorses"),
	)
	fmt.Printf("mapping (LAV: %v, relational: %v):\n%s\n",
		mapping.IsLAV(), mapping.IsRelational(), mapping)
	cm, err := repro.Compile(mapping)
	if err != nil {
		log.Fatal(err)
	}
	session, err := repro.NewSession(cm, source)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Universal solution: fresh null accounts in the middle of each
	// follows·follows path.
	target, err := session.UniversalSolution(ctx)
	if err != nil {
		log.Fatal(err)
	}
	nulls := 0
	for _, n := range target.Nodes() {
		if n.IsNullNode() {
			nulls++
		}
	}
	fmt.Printf("universal solution (%d nodes, %d nulls):\n%s\n",
		target.NumNodes(), nulls, target)

	// 4. Certain answers. "follows follows" is certain wherever the source
	// had 'knows'; "(follows follows)!=" additionally demands different
	// ages at the endpoints — certain for (ann, bob) but not for pairs with
	// equal ages.
	for _, q := range []string{
		"follows follows",
		"(follows follows)!=",
		"(follows follows follows follows)=",
	} {
		answers, err := session.CertainNull(ctx, repro.MustREE(q))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("certain(%s) = %s\n", q, answers)
	}
}
