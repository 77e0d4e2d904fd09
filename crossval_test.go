package repro

// Randomized end-to-end cross-validation of the snapshot/bitset evaluation
// pipeline against the sequential reference, over the internal/workload
// generators: random source graphs, random relational mappings and random
// REE queries. This is the top-level guarantee that the interned kernels,
// the dense answer bitmaps and the lock-free frontier sharding compute
// exactly the certain answers of the Theorem 4 algorithm.

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/datagraph"
	"repro/internal/ree"
	"repro/internal/workload"
)

func TestWorkloadCertainAnswerCrossValidation(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 8; seed++ {
		gs := workload.RandomGraph(workload.GraphSpec{
			Nodes: 40, Edges: 120, Labels: []string{"a", "b"}, Values: 8, Seed: seed,
		})
		m := workload.RandomRelationalMapping(workload.MappingSpec{
			SourceLabels: []string{"a", "b"}, TargetLabels: []string{"p", "q", "r"},
			Rules: 3, MaxWordLen: 2, Seed: seed,
		})
		var queries []core.Query
		for qi := int64(0); qi < 3; qi++ {
			queries = append(queries, ree.New(workload.RandomREEQuery(workload.QuerySpec{
				Labels: []string{"p", "q", "r"}, Depth: 3, AllowNeq: true, Seed: seed*10 + qi,
			})))
		}

		cm := MustCompile(m)
		want := make([]*core.Answers, len(queries))
		for i, q := range queries {
			w, err := core.NewMaterialization(cm, gs).CertainNull(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = w
		}
		for _, workers := range []int{1, 4} {
			s, err := NewSession(cm, gs, WithWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.Eval(ctx, queries...)
			if err != nil {
				t.Fatal(err)
			}
			for i := range queries {
				if !got[i].Equal(want[i]) {
					t.Fatalf("seed %d workers %d query %d: engine answers differ\n got: %v\nwant: %v",
						seed, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// TestWorkloadEvalSnapshotStability checks that evaluating through the
// engine leaves the universal solution's snapshot intact and that repeated
// evaluation of the same batch is deterministic.
func TestWorkloadEvalSnapshotStability(t *testing.T) {
	gs := workload.RandomGraph(workload.GraphSpec{
		Nodes: 30, Edges: 90, Labels: []string{"a", "b"}, Values: 6, Seed: 99,
	})
	m := core.NewMapping(core.R("a", "p q"), core.R("b", "r"))
	u, err := core.NewMaterialization(MustCompile(m), gs).UniversalCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	snap := u.Snapshot()
	if snap == nil {
		t.Fatal("the universal solution must be frozen")
	}
	q := ree.MustParseQuery("(p q)= | r")
	first := q.Eval(u, datagraph.SQLNulls)
	for i := 0; i < 3; i++ {
		if !q.Eval(u, datagraph.SQLNulls).Equal(first) {
			t.Fatal("repeated evaluation diverged")
		}
	}
	if u.Snapshot() != snap {
		t.Fatal("evaluation must not rebuild the cached snapshot")
	}
}
