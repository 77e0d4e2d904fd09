package datagraph

import (
	"math"
	"testing"
)

// TestScratchTupleSet checks the tuple set against a map: membership,
// insertion order, and both across the table's growth.
func TestScratchTupleSet(t *testing.T) {
	sc := new(Scratch)
	sc.Resize(0, 0, 3)
	sc.NextEpoch()
	seen := map[[3]int32]bool{}
	var order [][3]int32
	for i := 0; i < 5000; i++ {
		// Node indices a power of two apart, few distinct states and
		// registers: the shape that defeats a hash keeping only low bits.
		k := [3]int32{int32(i % 3), int32(i*37%1000) << 10, int32(i % 7)}
		if got, want := sc.AddTuple(k[:]), !seen[k]; got != want {
			t.Fatalf("AddTuple(%v) = %v, want %v", k, got, want)
		}
		if !seen[k] {
			seen[k] = true
			order = append(order, k)
		}
	}
	if sc.NumTuples() != len(order) {
		t.Fatalf("NumTuples = %d, want %d", sc.NumTuples(), len(order))
	}
	for i, k := range order {
		if got := sc.Tuple(i); [3]int32(got) != k {
			t.Fatalf("Tuple(%d) = %v, want %v", i, got, k)
		}
	}
	sc.NextEpoch()
	if sc.NumTuples() != 0 || !sc.AddTuple(order[0][:]) {
		t.Fatal("NextEpoch did not empty the tuple set")
	}
}

// TestScratchEpochWrap: the epoch after MaxUint32 is 1 again, the epoch of
// the scratch's very first search, whose marks and tuples must not come
// back.
func TestScratchEpochWrap(t *testing.T) {
	sc := new(Scratch)
	sc.Resize(8, 16, 1)
	sc.NextEpoch()
	if !sc.MarkNode(3) || !sc.MarkProduct(9) || !sc.AddTuple([]int32{7}) {
		t.Fatal("fresh scratch has marks")
	}
	if sc.MarkNode(3) || sc.MarkProduct(9) || sc.AddTuple([]int32{7}) {
		t.Fatal("marks do not hold within an epoch")
	}
	sc.SetEpoch(math.MaxUint32)
	sc.NextEpoch()
	if !sc.MarkNode(3) {
		t.Error("node mark survived the wrap")
	}
	if !sc.MarkProduct(9) {
		t.Error("product mark survived the wrap")
	}
	if !sc.AddTuple([]int32{7}) {
		t.Error("tuple survived the wrap")
	}
}

// TestScratchResizeGrows: marks beyond what an earlier call needed are
// addressable after Resize and start unmarked, under the same epoch.
func TestScratchResizeGrows(t *testing.T) {
	sc := new(Scratch)
	sc.Resize(4, 8, 0)
	sc.NextEpoch()
	sc.MarkNode(3)
	sc.MarkProduct(7)
	sc.Resize(4000, 8000, 0)
	sc.NextEpoch()
	if !sc.MarkNode(3) || !sc.MarkNode(3999) || !sc.MarkProduct(7) || !sc.MarkProduct(7999) {
		t.Fatal("grown scratch has marks")
	}
	sc.Resize(4, 8, 0) // a smaller call keeps the larger arrays
	if sc.MarkNode(3999) {
		t.Fatal("Resize to a smaller size dropped marks of the current epoch")
	}
}
