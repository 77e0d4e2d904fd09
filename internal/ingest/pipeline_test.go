package ingest

import (
	"context"
	"errors"
	"math/bits"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/datagraph"
	"repro/internal/fault"
)

const (
	custCSV   = "id,name,city\n1,alice,paris\n2,bob,\n3,carol,lyon\n"
	ordersCSV = "id,customer_id,total\n10,1,19.50\n11,2,\n12,1,5\n"
)

func loadFixture(t *testing.T, opts Options, srcs ...Source) (*datagraph.Graph, *Report) {
	t.Helper()
	s := mustSchema(t, fixtureSchema)
	g, rep, err := Load(context.Background(), s, opts, srcs...)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return g, rep
}

func fixtureSources() []Source {
	return []Source{CSVString("customer", custCSV), CSVString("orders", ordersCSV)}
}

func TestDirectMappingCSV(t *testing.T) {
	g, rep := loadFixture(t, Options{}, fixtureSources()...)
	if rep.Rows != 6 || rep.Skipped != 0 || rep.DroppedFKs != 0 {
		t.Fatalf("report = %+v", rep)
	}
	// customer: 3 rows × (row node + name cell + city cell, 2 property
	// edges); orders: 3 rows × (row node + total cell, 1 property edge +
	// 1 reference edge).
	if g.NumNodes() != 15 || g.NumEdges() != 12 {
		t.Fatalf("graph = %d nodes %d edges, want 15/12", g.NumNodes(), g.NumEdges())
	}
	checkValue := func(id, want string) {
		t.Helper()
		n, ok := g.NodeByID(datagraph.NodeID(id))
		if !ok {
			t.Fatalf("node %s missing", id)
		}
		if want == "null" {
			if !n.Value.IsNull() {
				t.Fatalf("node %s = %v, want null", id, n.Value)
			}
			return
		}
		if n.Value.IsNull() || n.Value.Raw() != want {
			t.Fatalf("node %s = %v, want %q", id, n.Value, want)
		}
	}
	checkValue("customer:1", "1")
	checkValue("customer:1:name", "alice")
	checkValue("customer:2:city", "null") // empty CSV cell is SQL NULL
	checkValue("orders:10:total", "19.5") // canonical float rendering
	if !g.HasEdge("customer:1", "customer#name", "customer:1:name") {
		t.Fatalf("property edge missing")
	}
	if !g.HasEdge("orders:10", "orders#customer", "customer:1") {
		t.Fatalf("reference edge missing")
	}
	if !g.HasEdge("orders:11", "orders#customer", "customer:2") {
		// NULL total still maps (a null cell node), but row 11's FK is 2,
		// not NULL — its reference edge must exist.
		t.Fatalf("reference edge for orders:11 missing")
	}
}

// sortedLines normalizes a graph rendering for order-insensitive
// comparison.
func sortedLines(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

func TestForwardReferences(t *testing.T) {
	// Loading orders before customers exercises the pending-FK buffer:
	// the same graph must come out, up to edge-log order.
	fwd, _ := loadFixture(t, Options{}, CSVString("orders", ordersCSV), CSVString("customer", custCSV))
	ref, _ := loadFixture(t, Options{}, fixtureSources()...)
	if sortedLines(fwd.String()) != sortedLines(ref.String()) {
		t.Fatalf("forward-reference load diverged:\n%s\nvs\n%s", fwd.String(), ref.String())
	}
}

func TestRowsSourceMatchesCSV(t *testing.T) {
	rows := map[string][][]string{
		"customer": {{"1", "alice", "paris"}, {"2", "bob", ""}, {"3", "carol", "lyon"}},
		"orders":   {{"10", "1", "19.50"}, {"11", "2", ""}, {"12", "1", "5"}},
	}
	byRows, _ := loadFixture(t, Options{}, Rows("customer", rows["customer"]), Rows("orders", rows["orders"]))
	byCSV, _ := loadFixture(t, Options{}, fixtureSources()...)
	if byRows.String() != byCSV.String() {
		t.Fatalf("Rows and CSV loads diverged")
	}
}

// synthRows builds a two-table synthetic dataset big enough to exercise
// batching: n parents, 3n children with FKs back to the parents.
func synthRows(n int) (parent, child [][]string) {
	for i := 1; i <= n; i++ {
		parent = append(parent, []string{strconv.Itoa(i), "p" + strconv.Itoa(i)})
	}
	for i := 1; i <= 3*n; i++ {
		child = append(child, []string{strconv.Itoa(i), strconv.Itoa((i % n) + 1), strconv.Itoa(i * 2)})
	}
	return parent, child
}

const synthSchema = `
table parent
col parent id int pk
col parent name text
table child
col child id int pk
col child parent_id int
col child score int
fk child parent_id parent.id
`

// TestBatchedIngestPublishesGeometrically: a batched load publishes
// mid-load snapshots only as the graph doubles, so it pays a number of
// builds logarithmic in its rows, never a delta merge, and its final
// snapshot's watermark covers the whole graph.
func TestBatchedIngestPublishesGeometrically(t *testing.T) {
	s := mustSchema(t, synthSchema)
	parent, child := synthRows(600)
	rows := len(parent) + len(child)
	var l *Loader
	var snaps []*datagraph.Snapshot // published when each commit's progress is reported
	l = New(s, Options{BatchSize: 8, Progress: func(Progress) { snaps = append(snaps, l.Snapshot()) }})
	rep, err := l.Run(context.Background(), Rows("parent", parent), Rows("child", child))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var mid []int // node counts of the mid-load publications
	for i, snap := range snaps[:len(snaps)-1] {
		if snap != nil && (i == 0 || snap != snaps[i-1]) {
			mid = append(mid, snap.NumNodes())
		}
	}
	if rep.DeltaBuilds != 0 {
		t.Fatalf("delta builds = %d, want 0; report %+v", rep.DeltaBuilds, rep)
	}
	if len(mid) < 3 || rep.FullBuilds != uint64(len(mid))+1 {
		t.Fatalf("full builds = %d after %d mid-load publications, want several publications plus the final build; report %+v",
			rep.FullBuilds, len(mid), rep)
	}
	if limit := bits.Len(uint(rows)); rep.FullBuilds > uint64(limit) {
		t.Fatalf("full builds = %d for %d rows, want at most %d", rep.FullBuilds, rows, limit)
	}
	for i := 1; i < len(mid); i++ {
		if mid[i] < 2*mid[i-1]*3/4 {
			t.Fatalf("publications at %v nodes do not grow geometrically", mid)
		}
	}
	snap := l.Snapshot()
	if snap == nil || snap != l.Graph().Snapshot() {
		t.Fatalf("the final snapshot is not the returned graph's")
	}
	edges := 0
	for l := 0; l < snap.NumLabels(); l++ {
		edges += snap.NumLabelEdges(datagraph.Label(l))
	}
	if snap.NumNodes() != l.Graph().NumNodes() || edges != l.Graph().NumEdges() {
		t.Fatalf("final snapshot has %d nodes and %d edges, graph %d and %d",
			snap.NumNodes(), edges, l.Graph().NumNodes(), l.Graph().NumEdges())
	}
}

// TestConcurrentQueriesMidIngest races readers against the writer: every
// published snapshot must be internally consistent (edges only between
// frozen nodes, interned values resolvable) while the load is appending,
// and the readers must see at least one mid-load snapshot — the writer
// waits at each publication until a reader has walked it. Run under -race.
func TestConcurrentQueriesMidIngest(t *testing.T) {
	s := mustSchema(t, synthSchema)
	parent, child := synthRows(400)
	rows := int64(len(parent) + len(child))
	walked := make(chan *datagraph.Snapshot, 1)
	var l *Loader
	var last *datagraph.Snapshot
	midSeen := 0
	l = New(s, Options{BatchSize: 32, Progress: func(p Progress) {
		snap := l.Snapshot()
		if snap == last || p.Rows == rows {
			return
		}
		last = snap
		timeout := time.After(10 * time.Second)
		for {
			select {
			case w := <-walked:
				if w == snap {
					midSeen++
					return
				}
			case <-timeout:
				return
			}
		}
	}})

	done := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				snap := l.Snapshot()
				if snap == nil {
					continue
				}
				// Touch the interned surface only: CSR traversal and value
				// ids are frozen.
				for u := 0; u < snap.NumNodes(); u++ {
					for _, v := range snap.OutAll(u) {
						if int(v) >= snap.NumNodes() {
							panic("edge to unfrozen node escaped a snapshot")
						}
					}
					_ = snap.ValueID(u)
				}
				select {
				case walked <- snap:
				default:
				}
			}
		}()
	}
	_, err := l.Run(context.Background(), Rows("parent", parent), Rows("child", child))
	close(done)
	readers.Wait()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if midSeen == 0 {
		t.Fatalf("no reader saw a mid-load snapshot")
	}
}

// TestSkippedRowIsAtomic: a row rejected for a node-id clash leaves
// nothing of itself in the graph. Keys may contain ':', so row 1:name's id
// item:1:name is the cell id of row 1's name; whichever of the two loads
// second is the bad row, under the lenient policy skipped whole, under the
// strict one an ErrBadRow at its own row.
func TestSkippedRowIsAtomic(t *testing.T) {
	s := mustSchema(t, "table item\ncol item id text pk\ncol item name text\n")
	for _, tc := range []struct {
		csv       string
		kept, bad string // row node ids
	}{
		{"id,name\n1:name,b\n1,a\n", "item:1:name", "item:1"},
		{"id,name\n1,a\n1:name,b\n", "item:1", "item:1:name:name"},
	} {
		g, rep, err := Load(context.Background(), s, Options{SkipBadRows: true}, CSVString("item", tc.csv))
		if err != nil {
			t.Fatalf("%q: Load: %v", tc.csv, err)
		}
		if rep.Rows != 1 || rep.Skipped != 1 {
			t.Fatalf("%q: report %+v, want Rows:1 Skipped:1", tc.csv, rep)
		}
		if g.NumNodes() != 2 || g.NumEdges() != 1 {
			t.Fatalf("%q: graph has %d nodes and %d edges, want the kept row's 2 and 1:\n%s", tc.csv, g.NumNodes(), g.NumEdges(), g)
		}
		if _, ok := g.NodeByID(datagraph.NodeID(tc.kept)); !ok {
			t.Fatalf("%q: kept row %s is missing:\n%s", tc.csv, tc.kept, g)
		}
		if _, ok := g.NodeByID(datagraph.NodeID(tc.bad)); ok {
			t.Fatalf("%q: skipped row %s left its node behind:\n%s", tc.csv, tc.bad, g)
		}
		_, _, err = Load(context.Background(), s, Options{}, CSVString("item", tc.csv))
		var re *RowError
		if !errors.Is(err, ErrBadRow) || !errors.As(err, &re) || re.Row != 2 {
			t.Fatalf("%q: strict load err = %v, want ErrBadRow at row 2", tc.csv, err)
		}
	}
}

// TestFKLabelCollisionOneEdge: two foreign keys whose labels coincide
// (a_id loses its "_id", and a keeps its name) and that reference the
// same row give one edge, as edges form a set — whether the target row
// loads before or after the referencing one.
func TestFKLabelCollisionOneEdge(t *testing.T) {
	s := mustSchema(t, `
table c
col c id int pk
table o
col o id int pk
col o a_id int
col o a int
fk o a_id c.id
fk o a c.id
`)
	cs, os := CSVString("c", "id\n1\n2\n"), CSVString("o", "id,a_id,a\n10,1,1\n11,1,2\n")
	for _, srcs := range [][]Source{{cs, os}, {os, cs}} {
		g, _, err := Load(context.Background(), s, Options{}, srcs...)
		if err != nil {
			t.Fatalf("Load: %v", err)
		}
		if g.NumEdges() != 3 || !g.HasEdge("o:10", "o#a", "c:1") ||
			!g.HasEdge("o:11", "o#a", "c:1") || !g.HasEdge("o:11", "o#a", "c:2") {
			t.Fatalf("want edges o:10 -> c:1 and o:11 -> c:1, c:2, all labelled o#a; got\n%s", g)
		}
	}
}

func TestIngestRowFaultSkipPolicy(t *testing.T) {
	if err := fault.Arm("ingest.row=error:n=3", 1); err != nil {
		t.Fatalf("arm: %v", err)
	}
	defer fault.Disarm()
	s := mustSchema(t, synthSchema)
	parent, child := synthRows(50)
	l := New(s, Options{SkipBadRows: true})
	rep, err := l.Run(context.Background(), Rows("parent", parent), Rows("child", child))
	if err != nil {
		t.Fatalf("Run under skip policy: %v", err)
	}
	if rep.Skipped != 3 {
		t.Fatalf("skipped = %d, want 3 injected row faults", rep.Skipped)
	}
}

func TestIngestCommitFaultIsFatal(t *testing.T) {
	if err := fault.Arm("ingest.commit=error:n=1", 1); err != nil {
		t.Fatalf("arm: %v", err)
	}
	defer fault.Disarm()
	s := mustSchema(t, synthSchema)
	parent, child := synthRows(200)
	// Even under the lenient row policy, a commit fault aborts the load.
	l := New(s, Options{BatchSize: 32, SkipBadRows: true})
	_, err := l.Run(context.Background(), Rows("parent", parent), Rows("child", child))
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("err = %v, want injected commit fault", err)
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := mustSchema(t, synthSchema)
	parent, child := synthRows(100)
	if _, _, err := Load(ctx, s, Options{}, Rows("parent", parent), Rows("child", child)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestProgressReporting(t *testing.T) {
	s := mustSchema(t, synthSchema)
	parent, child := synthRows(100)
	var calls []Progress
	opts := Options{BatchSize: 64, Progress: func(p Progress) { calls = append(calls, p) }}
	if _, _, err := Load(context.Background(), s, opts, Rows("parent", parent), Rows("child", child)); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(calls) < 2 {
		t.Fatalf("progress calls = %d, want per-batch reports", len(calls))
	}
	last := calls[len(calls)-1]
	if last.Rows != 400 {
		t.Fatalf("final progress rows = %d, want 400", last.Rows)
	}
	for i := 1; i < len(calls); i++ {
		if calls[i].Rows < calls[i-1].Rows {
			t.Fatalf("progress went backwards: %+v", calls)
		}
	}
}
