package datagraph_test

import (
	"context"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/ingest"
	"repro/internal/workload"
)

// liveHeap is the heap in use after a full collection; the second GC
// empties the sync.Pool victim caches the first one leaves.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestSizeBytesTracksLiveHeap: the memory governor charges a graph's
// SizeBytes, so at the canonical load's size (20 000 CSV rows through the
// direct mapping, then the build; the path gsm ingest takes) the estimate
// must stay within a quarter of the heap the loaded graph and its snapshot
// actually hold. The generated input stays reachable until both heap
// readings are taken, so the window measures the graph alone.
func TestSizeBytesTracksLiveHeap(t *testing.T) {
	d := workload.Relational(workload.RelationalSpec{Customers: 4000, Products: 1000, Orders: 15000, Seed: 16})
	dir := t.TempDir()
	if err := d.WriteCSV(dir); err != nil {
		t.Fatal(err)
	}
	srcs := make([]ingest.Source, 0, len(d.Schema.Tables))
	for _, tab := range d.Schema.Tables {
		srcs = append(srcs, ingest.CSVFile(tab.Name, filepath.Join(dir, tab.File)))
	}
	before := liveHeap()
	g, _, err := ingest.Load(context.Background(), d.Schema, ingest.Options{}, srcs...)
	if err != nil {
		t.Fatal(err)
	}
	live := liveHeap() - before
	est := g.SizeBytes()
	runtime.KeepAlive(g)
	runtime.KeepAlive(d)
	ratio := float64(est) / float64(live)
	t.Logf("%d nodes, %d edges: SizeBytes %d B, live heap %d B, ratio %.2f", g.NumNodes(), g.NumEdges(), est, live, ratio)
	if ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("SizeBytes %d B is %.2f× the live heap %d B, want within [0.8, 1.25]", est, ratio, live)
	}
}
