package ingest

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/datagraph"
	"repro/internal/fault"
)

// Pipeline stage layout. Three stages run concurrently per load:
//
//	parse (1 goroutine)  →  map (≤ 4 goroutines, order-preserving)  →  write (1 writer)
//
// The parse stage streams raw rows off the sources in order, in chunks of
// chunkRows; each chunk is mapped (cells coerced, rows laid out as nodes
// and edges) concurrently behind a future the writer awaits in source
// order. The single writer collects dense node and edge arrays, resolves
// foreign keys to node indices, commits batches, and builds the graph
// once, with datagraph.Build, at the final commit; see commit for the
// mid-load publications.
//
// Fault points: "ingest.row" fires per applied row (row-scoped, so the
// skip-bad-rows policy applies); "ingest.commit" fires per batch commit
// and is fatal.

// Options tunes a load.
type Options struct {
	// BatchSize is the number of rows per commit batch (progress report,
	// commit fault point, publication check). Default 4096.
	BatchSize int
	// SkipBadRows selects the lenient policy: row-scoped errors (ragged
	// rows, coercion failures, duplicate keys, dangling foreign keys) are
	// counted and skipped instead of aborting the load.
	SkipBadRows bool
	// Progress, when set, is called after every committed batch and once
	// at the end, from the writer goroutine.
	Progress func(Progress)
}

// Progress is a per-batch progress report.
type Progress struct {
	Table   string `json:"table"`             // table the batch ended in
	Rows    int64  `json:"rows"`              // cumulative rows applied
	Skipped int64  `json:"skipped,omitempty"` // cumulative rows skipped
	Nodes   int    `json:"nodes"`
	Edges   int    `json:"edges"`
}

// Report summarizes a completed load.
type Report struct {
	Rows        int64         `json:"rows"`    // rows applied
	Skipped     int64         `json:"skipped"` // rows skipped (skip-bad-rows policy)
	DroppedFKs  int64         `json:"dropped_fks"`
	Nodes       int           `json:"nodes"`
	Edges       int           `json:"edges"`
	Batches     int           `json:"batches"`
	FullBuilds  uint64        `json:"full_builds"`  // graph builds: mid-load publications plus the final one
	DeltaBuilds uint64        `json:"delta_builds"` // always 0; kept until the benchmark harness drops its delta metrics
	Elapsed     time.Duration `json:"elapsed_ns"`
}

// Loader runs loads and publishes immutable snapshots for concurrent
// readers. The zero value is not usable; see New.
type Loader struct {
	schema *Schema
	opts   Options
	g      *datagraph.Graph
	snap   atomic.Pointer[datagraph.Snapshot]
}

// New prepares a loader for the schema. The schema must already validate.
func New(schema *Schema, opts Options) *Loader {
	if opts.BatchSize <= 0 {
		opts.BatchSize = 4096
	}
	return &Loader{schema: schema, opts: opts}
}

// Graph returns the graph the last successful Run built, or nil. Not safe
// to use concurrently with Run; mid-load readers must go through Snapshot.
func (l *Loader) Graph() *datagraph.Graph { return l.g }

// Snapshot returns the most recently published snapshot, or nil before
// the first publication. Safe to call concurrently with Run: snapshots are
// immutable and published atomically at batch boundaries, so readers see
// a consistent frozen prefix of the load.
func (l *Loader) Snapshot() *datagraph.Snapshot { return l.snap.Load() }

// Load is the one-call entry point: build a graph from the schema and
// sources, frozen, and return it with the load report.
func Load(ctx context.Context, schema *Schema, opts Options, srcs ...Source) (*datagraph.Graph, *Report, error) {
	l := New(schema, opts)
	rep, err := l.Run(ctx, srcs...)
	if err != nil {
		return nil, rep, err
	}
	return l.g, rep, nil
}

// chunkRows is the number of rows one pipeline future carries.
const chunkRows = 256

// chunk is the unit flowing from the parse stage to the writer: up to
// chunkRows consecutive rows of one source, and a future its map goroutine
// completes out of band. Applied chunks go back to chunkPool.
type chunk struct {
	lay   *layout
	rows  []Row
	out   []mappedRow   // out[i].err holds row i's parse error, pre-empting the map stage
	done  chan struct{} // closed once mapped
	cells []cell        // backing of the out rows' cells and refs
	refs  []ref
}

var chunkPool = sync.Pool{New: func() any { return new(chunk) }}

func (c *chunk) release() {
	clear(c.rows)
	clear(c.out)
	c.rows, c.out = c.rows[:0], c.out[:0]
	chunkPool.Put(c)
}

// Run streams every source through the pipeline into a fresh graph.
// Sources load in the given order; rows within a source keep their order.
// On a fatal error (bad schema reference, strict-policy row error, commit
// fault, context cancellation) the partial report is returned alongside
// the error.
func (l *Loader) Run(ctx context.Context, srcs ...Source) (*Report, error) {
	start := time.Now()
	rep := &Report{}
	w := &writer{l: l, rep: rep, tabs: make([]tableState, len(l.schema.Tables))}
	for i := range w.tabs {
		w.tabs[i] = tableState{seen: make(map[string]int32), pending: make(map[string][]pendingEdge)}
	}
	finish := func(err error) (*Report, error) {
		rep.FullBuilds = w.builds
		rep.Nodes, rep.Edges = w.nodes.n, w.edges.n
		rep.Elapsed = time.Since(start)
		return rep, err
	}

	tabs := make([]int, len(srcs))
	for i, src := range srcs {
		if tabs[i] = slices.IndexFunc(l.schema.Tables, func(t Table) bool { return t.Name == src.Table }); tabs[i] < 0 {
			return finish(fmt.Errorf("%w: source for undeclared table %q", ErrBadSchema, src.Table))
		}
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Stages 1 and 2: the parse goroutine hands each chunk to the writer
	// in source order and to one of at most four concurrent map goroutines.
	ordered := make(chan *chunk, 4) // lets parsing run a few chunks ahead of the writer
	parseErr := make(chan error, 1)
	maps := make(chan struct{}, min(runtime.GOMAXPROCS(0), 4))
	go func() {
		defer close(ordered)
		for i, src := range srcs {
			if err := parseSource(ctx, newLayout(l.schema, tabs[i]), src, ordered, maps); err != nil {
				parseErr <- err
				return
			}
		}
		parseErr <- nil
	}()

	// Stage 3: the writer loop, on this goroutine.
	for c := range ordered {
		<-c.done
		for i := range c.out {
			if err := w.row(ctx, c.lay, &c.out[i]); err != nil {
				cancel()
				drain(ordered)
				return finish(err)
			}
		}
		c.release()
	}
	if err := <-parseErr; err != nil && !errors.Is(err, context.Canceled) {
		return finish(err)
	}
	if err := ctx.Err(); err != nil {
		return finish(err)
	}
	if err := w.finishFKs(); err != nil {
		return finish(err)
	}
	if err := w.commit(true); err != nil {
		return finish(err)
	}
	return finish(nil)
}

// parseSource streams one source's rows into the pipeline, chunkRows at a
// time, starting each chunk's mapping once the writer is sure to await it.
func parseSource(ctx context.Context, lay *layout, src Source, ordered chan<- *chunk, maps chan struct{}) error {
	r, err := src.Open(lay.t)
	if err != nil {
		return err
	}
	defer r.Close()
	send := func(c *chunk) error {
		select {
		case ordered <- c:
		case <-ctx.Done():
			return ctx.Err()
		}
		maps <- struct{}{}
		go func() {
			mapChunk(c)
			<-maps
			close(c.done)
		}()
		return nil
	}
	var c *chunk
	for {
		row, err := r.Next()
		if err == io.EOF {
			if c == nil {
				return nil
			}
			return send(c)
		}
		if c == nil {
			c = chunkPool.Get().(*chunk)
			c.lay, c.done = lay, make(chan struct{})
		}
		c.rows = append(c.rows, row)
		c.out = append(c.out, mappedRow{err: err})
		fatal := err != nil && !isRowError(err)
		if len(c.rows) == chunkRows || fatal {
			if err := send(c); err != nil {
				return err
			}
			c = nil
		}
		if fatal {
			return err // fatal reader error; writer also sees it
		}
	}
}

// drain discards the remaining ordered chunks after an abort so the map
// workers and parse goroutine can exit.
func drain(ordered <-chan *chunk) {
	for c := range ordered {
		<-c.done
		c.release()
	}
}

// pendingEdge is a foreign-key edge buffered until its target row node
// appears (forward and self references are legal in relational data).
type pendingEdge struct {
	from  int32 // the referencing row node's index
	label string
	table string // referencing table, for dangling diagnostics
	row   int
}

// tableState is the writer's record of one table: loaded keys with their
// row node's index, and the edges waiting for a key to load.
type tableState struct {
	seen    map[string]int32
	colon   bool // some loaded key contains ':'
	pending map[string][]pendingEdge
}

// writer is the single goroutine that collects the graph during a load.
type writer struct {
	l            *Loader
	rep          *Report
	nodes        chunks[datagraph.Node]
	edges        chunks[datagraph.IndexEdge]
	tabs         []tableState // by table index
	batchRows    int          // rows in the current batch
	batchStart   int          // ops (nodes+edges) before the current batch
	maxBatchOps  int
	published    int // ops covered by the last mid-load publication
	builds       uint64
	currentTable string
}

func isRowError(err error) bool {
	var re *RowError
	return errors.As(err, &re)
}

// skippable decides a row-scoped error's fate under the active policy.
func (w *writer) skippable(err error) error {
	if isRowError(err) && w.l.opts.SkipBadRows {
		w.rep.Skipped++
		return nil
	}
	return err
}

// row applies one mapped row: all of its nodes and edges, or none.
func (w *writer) row(ctx context.Context, lay *layout, m *mappedRow) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if m.err != nil {
		return w.skippable(m.err)
	}
	if err := fault.Hit("ingest.row"); err != nil {
		return w.skippable(rowErr(lay.t.Name, m.num, err))
	}
	ts := &w.tabs[lay.tab]
	if _, dup := ts.seen[m.key]; dup {
		return w.skippable(rowErr(lay.t.Name, m.num, fmt.Errorf("%w: %q", ErrDuplicatePK, m.key)))
	}
	if id := w.collision(lay, m); id != "" {
		return w.skippable(rowErr(lay.t.Name, m.num, fmt.Errorf("%w: %v %q", ErrBadRow, datagraph.ErrDuplicateNode, string(id))))
	}
	at := int32(w.nodes.n)
	ts.seen[m.key] = at
	ts.colon = ts.colon || strings.IndexByte(m.key, ':') >= 0
	w.currentTable = lay.t.Name
	w.nodes.add(datagraph.Node{ID: m.id, Value: datagraph.V(m.key)})
	for _, c := range m.cells {
		w.edges.add(datagraph.IndexEdge{From: at, To: int32(w.nodes.n), Label: c.label})
		w.nodes.add(datagraph.Node{ID: c.id, Value: c.val})
	}

	// Resolve references: edges out of this row, and buffered edges into it.
	for _, r := range m.refs {
		if to, ok := w.tabs[r.tab].seen[r.key]; ok {
			w.edges.add(datagraph.IndexEdge{From: at, To: to, Label: r.label})
		} else {
			p := w.tabs[r.tab].pending
			p[r.key] = append(p[r.key], pendingEdge{from: at, label: r.label, table: lay.t.Name, row: m.num})
		}
	}
	for _, pe := range ts.pending[m.key] {
		w.edges.add(datagraph.IndexEdge{From: pe.from, To: at, Label: pe.label})
	}
	delete(ts.pending, m.key)

	w.rep.Rows++
	w.batchRows++
	if w.batchRows >= w.l.opts.BatchSize {
		return w.commit(false)
	}
	return nil
}

// collision returns the id of m that a loaded node already has, or "".
// Identifiers cannot contain ':', so the only clash is, within a table, a
// row id t:K against a cell id t:k:c with K = k:c, either way round.
func (w *writer) collision(lay *layout, m *mappedRow) datagraph.NodeID {
	ts := &w.tabs[lay.tab]
	if i := strings.LastIndexByte(m.key, ':'); i >= 0 {
		if ci, ok := lay.t.Column(m.key[i+1:]); ok && ci != lay.pki && lay.refs[ci] < 0 {
			if _, ok := ts.seen[m.key[:i]]; ok {
				return m.id
			}
		}
	}
	for i := 0; ts.colon && i < len(m.cells); i++ {
		if _, ok := ts.seen[string(m.cells[i].id[len(lay.t.Name)+1:])]; ok {
			return m.cells[i].id
		}
	}
	return ""
}

// finishFKs settles the pending buffer at end of input: anything left is
// a dangling foreign key — dropped under the lenient policy, fatal under
// strict. The strict error names the dangling reference whose referencing
// row comes first in input order (row nodes are appended in that order; a
// row's own references tie-break by referenced table, then key), so it
// does not depend on map iteration.
func (w *writer) finishFKs() error {
	var first *pendingEdge
	var firstTab int
	var firstKey string
	for tab := range w.tabs {
		for refKey, edges := range w.tabs[tab].pending {
			if w.l.opts.SkipBadRows {
				w.rep.DroppedFKs += int64(len(edges))
				continue
			}
			pe := &edges[0] // the earliest referencing row of this key
			if first == nil || pe.from < first.from || pe.from == first.from && tab == firstTab && refKey < firstKey {
				first, firstTab, firstKey = pe, tab, refKey
			}
		}
	}
	if first != nil {
		return rowErr(first.table, first.row, fmt.Errorf("%w: no row %s:%s", ErrDanglingFK, w.l.schema.Tables[firstTab].Name, firstKey))
	}
	return nil
}

// commit ends a batch: the commit fault point, publication, and the
// progress callback. Commit errors are always fatal.
//
// The final commit builds the graph the load returns. An earlier commit
// publishes a build of the graph so far once it has outgrown any single
// batch by a wide margin (20× the largest batch seen) and has doubled
// since the last publication, so a load pays O(log n) builds.
func (w *writer) commit(final bool) error {
	if w.batchRows == 0 && !final {
		return nil
	}
	if err := fault.Hit("ingest.commit"); err != nil {
		return fmt.Errorf("ingest: commit: %w", err)
	}
	ops := w.nodes.n + w.edges.n
	w.maxBatchOps = max(w.maxBatchOps, ops-w.batchStart)
	w.batchRows, w.batchStart = 0, ops
	w.rep.Batches++
	if final || ops >= 20*w.maxBatchOps && ops >= 2*w.published {
		w.builds++
		g, err := datagraph.Build(w.nodes.flat(), w.edges.flat())
		if err != nil {
			return fmt.Errorf("ingest: build: %w", err)
		}
		w.published = ops
		w.l.snap.Store(g.Snapshot()) // Build returns the graph frozen
		if final {
			w.l.g = g
		}
	}
	if p := w.l.opts.Progress; p != nil {
		p(Progress{Table: w.currentTable, Rows: w.rep.Rows, Skipped: w.rep.Skipped,
			Nodes: w.nodes.n, Edges: w.edges.n})
	}
	return nil
}

// chunks is an append-only array in chunks that double up to 8192 entries,
// so growing it copies nothing; flat makes one exactly sized copy.
type chunks[T any] struct {
	list [][]T
	n    int
}

func (c *chunks[T]) add(v T) {
	if k := len(c.list); k == 0 || len(c.list[k-1]) == cap(c.list[k-1]) {
		c.list = append(c.list, make([]T, 0, 64<<min(k, 7)))
	}
	c.list[len(c.list)-1] = append(c.list[len(c.list)-1], v)
	c.n++
}

func (c *chunks[T]) flat() []T { return slices.Concat(c.list...) }
