package ree

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"repro/internal/datagraph"
)

// EvalFrom freezes the graph it is given. These tests pin the two halves of
// that contract the exact certain-answer search relies on: a SetValue is
// seen by the next EvalFrom, and concurrent callers on one unfrozen graph
// all see the frozen answers.

func TestEvalFromSeesSetValue(t *testing.T) {
	g := datagraph.New()
	g.MustAddNode("s", datagraph.V("1"))
	g.MustAddNode("t", datagraph.V("1"))
	g.MustAddEdge("s", "a", "t")
	q := MustParseQuery("(a)=")
	for i, c := range []struct {
		value string
		want  int
	}{{"1", 1}, {"2", 0}, {"1", 1}} {
		g.SetValue(1, datagraph.V(c.value))
		if got := q.EvalFrom(g, 0, datagraph.MarkedNulls); len(got) != c.want {
			t.Fatalf("step %d: δ(t) = %s: EvalFrom = %v, want %d answers", i, c.value, got, c.want)
		}
		if g.Snapshot() == nil {
			t.Fatalf("step %d: EvalFrom must leave the graph frozen", i)
		}
	}
	if full, delta := g.SnapshotBuilds(); full != 1 || delta != 0 {
		t.Fatalf("SetValue-only changes must refresh values only: %d full and %d delta builds", full, delta)
	}
}

func TestConcurrentEvalFromOnUnfrozenGraph(t *testing.T) {
	base := randomGraph(3, 30, 90, 5)
	for _, qs := range []string{"(a b)=", "((a | b)=)+", "(a (b)!=)= | b"} {
		q := MustParseQuery(qs)
		for _, mode := range modes {
			rows := make([][]int, base.NumNodes())
			q.Eval(base.Clone(), mode).Each(func(p datagraph.Pair) { rows[p.From] = append(rows[p.From], p.To) })
			for _, row := range rows {
				sort.Ints(row)
			}
			g := base.Clone() // shared and never frozen before the goroutines start
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for u, row := range rows {
						got := q.EvalFrom(g, u, mode)
						sort.Ints(got)
						if fmt.Sprint(got) != fmt.Sprint(row) {
							t.Errorf("%q mode %v: EvalFrom(%d) = %v, want %v", qs, mode, u, got, row)
							return
						}
					}
				}()
			}
			wg.Wait()
		}
	}
}
