// Package engine is the concurrent query evaluator beneath sessions. It
// evaluates queries over one frozen graph — the snapshot of a source graph
// or of a memoized solution — sharding two independent dimensions of work
// across a pool of GOMAXPROCS goroutines:
//
//   - queries: each query in a batch is evaluated independently;
//   - source-node frontiers: a query that can evaluate a range of start
//     nodes (core.RangeEvaluator — REE, REM and navigational RPQs all can)
//     has its start frontier split into chunks, one chunk per work item.
//
// It has two entry points: EvalGraph evaluates one query over any graph,
// and EvalSolution runs a Theorem 4 batch over a universal solution. The
// certain-answer algorithms themselves — which solution to build, how to
// filter its answers, the exact and Proposition 4/5 searches — live on
// core.Materialization.
//
// The kernels prune start nodes that cannot begin a match by their
// StartLabels against the snapshot's CSR rows, which makes selective queries
// on large graphs nearly free.
//
// Output is deterministic: answers are set-valued and the merge is
// order-insensitive, so the same inputs always produce the same Answers
// regardless of scheduling.
package engine

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/datagraph"
)

// Options configure the worker pool.
type Options struct {
	// Workers is the number of goroutines; ≤ 0 means GOMAXPROCS.
	Workers int
	// ChunkSize is the number of start nodes per frontier work item; ≤ 0
	// picks a default balancing scheduling overhead against skew.
	ChunkSize int
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (o Options) chunk() int {
	if o.ChunkSize > 0 {
		return o.ChunkSize
	}
	return 32
}

// EvalSolution runs the Theorem 4 batch over an already materialized
// universal solution: evaluate every query concurrently under SQL-null
// semantics and filter null-node endpoints. Sessions use it so a stream of
// batches against one (M, Gs) shares one memoized solution instead of
// rebuilding it per call.
func EvalSolution(ctx context.Context, u *datagraph.Graph, opts Options, queries ...core.Query) ([]*core.Answers, error) {
	sets, err := evalAll(ctx, u, queries, datagraph.SQLNulls, opts)
	if err != nil {
		return nil, err
	}
	out := make([]*core.Answers, len(queries))
	for i, res := range sets {
		out[i] = core.FilterNullAnswers(u, res)
	}
	return out, nil
}

// EvalGraph evaluates one query over one graph with the start-node frontier
// sharded across the worker pool. It is the parallel counterpart of
// q.Eval(g, mode) and falls back to it when the query is not a
// core.RangeEvaluator.
func EvalGraph(ctx context.Context, g *datagraph.Graph, q core.Query, mode datagraph.CompareMode, opts Options) (*datagraph.PairSet, error) {
	sets, err := evalAll(ctx, g, []core.Query{q}, mode, opts)
	if err != nil {
		return nil, err
	}
	return sets[0], nil
}

// job is one unit of work: evaluate query qi on start nodes [lo, hi) of the
// shared graph, or — when whole is set — run the query's monolithic Eval
// (for queries that are not a core.RangeEvaluator).
type job struct {
	qi     int
	lo, hi int
	whole  bool
}

// evalAll runs the shared worker pool over every (query, frontier-chunk)
// work item and returns one PairSet per query.
//
// The graph is frozen exactly once, up front, so every worker evaluates
// against one shared immutable snapshot; a graph already frozen (every
// solution and built graph is) costs nothing here, and one whose topology
// changed since pays an O(V+E) rebuild. Result sets are dense bitmap
// PairSets (when the graph fits the dense budget); frontier work items for
// the same query touch disjoint start nodes and therefore disjoint bitmap
// rows, so workers write answers straight into the shared result set
// without locks — only whole-query work items and sparse fallbacks merge
// under a mutex.
func evalAll(ctx context.Context, g *datagraph.Graph, queries []core.Query, mode datagraph.CompareMode, opts Options) ([]*datagraph.PairSet, error) {
	n := g.NumNodes()
	g.Freeze()
	chunk := opts.chunk()
	jobs := make([]job, 0, len(queries)*((n+chunk-1)/chunk))
	for qi, q := range queries {
		if _, ranged := q.(core.RangeEvaluator); ranged {
			for lo := 0; lo < n; lo += chunk {
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				jobs = append(jobs, job{qi: qi, lo: lo, hi: hi})
			}
		} else {
			jobs = append(jobs, job{qi: qi, whole: true})
		}
	}

	results := make([]*datagraph.PairSet, len(queries))
	locks := make([]sync.Mutex, len(queries))
	for i := range results {
		results[i] = datagraph.NewPairSetSized(n)
	}

	workers := opts.workers()
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 {
		// Sequential fast path: no goroutine or lock overhead.
		for _, j := range jobs {
			if err := ctx.Err(); err != nil {
				return nil, core.Canceled(err)
			}
			runJob(g, queries, mode, j, results[j.qi])
		}
		return results, nil
	}

	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			local := datagraph.NewPairSet()
			lastQ := -1
			flush := func() {
				if lastQ >= 0 && local.Len() > 0 {
					locks[lastQ].Lock()
					local.Each(func(p datagraph.Pair) { results[lastQ].AddPair(p) })
					locks[lastQ].Unlock()
				}
				local = datagraph.NewPairSet()
			}
			for ctx.Err() == nil {
				idx := int(next.Add(1)) - 1
				if idx >= len(jobs) {
					break
				}
				j := jobs[idx]
				if !j.whole && results[j.qi].Dense() {
					// Disjoint bitmap rows: write directly, lock-free.
					runJob(g, queries, mode, j, results[j.qi])
					continue
				}
				if j.qi != lastQ {
					flush()
					lastQ = j.qi
				}
				runJob(g, queries, mode, j, local)
			}
			flush()
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, core.Canceled(err)
	}
	return results, nil
}

// runJob executes one work item, adding pairs into sink.
func runJob(g *datagraph.Graph, queries []core.Query, mode datagraph.CompareMode, j job, sink *datagraph.PairSet) {
	q := queries[j.qi]
	if j.whole {
		q.Eval(g, mode).Each(func(p datagraph.Pair) { sink.AddPair(p) })
		return
	}
	// Snapshot kernel: interned labels, scratch shared across the chunk,
	// start pruning done internally on interned start labels.
	q.(core.RangeEvaluator).EvalRange(g, j.lo, j.hi, mode, sink.Add)
}
