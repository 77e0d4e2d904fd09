package datagraph

import (
	"slices"
	"sync"
)

// Scratch is the working memory of the one evaluation kernel, ra's: its
// zero-register product, word and reachability searches and its register
// configuration search all run on this type. A kernel call acquires a
// scratch, sizes it for its snapshot, runs every start node of its range on
// it and releases it, so the memory is reused across start nodes, chunks,
// workers and requests and a call allocates only what its frontier outgrows.
//
// Everything that must be empty at the start of a search is emptied by
// NextEpoch in O(1): marks are stamps, a slot being marked iff its stamp
// equals the current epoch. A scratch is owned by one goroutine between
// AcquireScratch and Release. The zero Scratch is an empty one.
type Scratch struct {
	epoch uint32

	// Stamp arrays over nodes and over product states (node·states+state).
	// They only ever grow, so a scratch last used on a larger snapshot or a
	// larger automaton is valid as it is.
	node    []uint32
	product []uint32

	// Queue, Frontier and Next are the kernels' work lists. Their contents
	// mean nothing across kernel calls; only their capacity is kept.
	Queue, Frontier, Next []int32

	// The tuple set: fixed-width int32 tuples in insertion order, indexed by
	// an open-addressing table whose slots are stamped like the marks. The
	// register search keeps its (state, node, registers…) configurations
	// here — a key space too sparse for a stamp array — and walks them in
	// insertion order, so the set is its visited set and its queue at once.
	width     int
	numTuples int
	tuples    []int32
	slotStamp []uint32
	slotTuple []int32
	buf       []int32 // backs TupleBuffer
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// AcquireScratch takes a scratch from the process-wide pool, sized by Resize
// for one kernel call.
func AcquireScratch(nodes, product, width int) *Scratch {
	sc := scratchPool.Get().(*Scratch)
	sc.Resize(nodes, product, width)
	return sc
}

// Resize sizes the scratch for a kernel call: marks for nodes nodes and
// product product states (0 when the kernel keeps none), tuples of width
// int32s (0 likewise). Whatever an earlier, differently sized call left
// behind stays unmarked.
func (sc *Scratch) Resize(nodes, product, width int) {
	sc.node = growStamps(sc.node, nodes)
	sc.product = growStamps(sc.product, product)
	sc.width = width
}

// Release returns the scratch to the pool. The caller must not use it, nor
// any slice obtained from it, afterwards.
func (sc *Scratch) Release() { scratchPool.Put(sc) }

// growStamps returns s with len ≥ n. A grown array starts zeroed, which no
// epoch equals, and carries a quarter of slack so that a graph growing by
// small appends between queries does not reallocate on every freeze.
func growStamps(s []uint32, n int) []uint32 {
	if len(s) >= n {
		return s
	}
	return make([]uint32, n+n/4)
}

// NextEpoch unmarks every node and product state and empties the tuple set.
// The epoch wraps after 2³² calls — within an hour of serving at ~12k start
// nodes per query — and stamps left from the previous cycle would then read
// as marked, so a wrap zeroes the stamp arrays.
func (sc *Scratch) NextEpoch() {
	sc.epoch++
	if sc.epoch == 0 {
		clear(sc.node)
		clear(sc.product)
		clear(sc.slotStamp)
		sc.epoch = 1
	}
	sc.tuples, sc.numTuples = sc.tuples[:0], 0
}

// SetEpoch moves the epoch counter forward, so tests can reach the
// wraparound without 2³² searches. Moving it back would revive old stamps.
func (sc *Scratch) SetEpoch(e uint32) { sc.epoch = e }

// MarkNode marks node v and reports whether it was unmarked.
func (sc *Scratch) MarkNode(v int) bool {
	if sc.node[v] == sc.epoch {
		return false
	}
	sc.node[v] = sc.epoch
	return true
}

// MarkProduct marks product state id and reports whether it was unmarked.
func (sc *Scratch) MarkProduct(id int) bool {
	if sc.product[id] == sc.epoch {
		return false
	}
	sc.product[id] = sc.epoch
	return true
}

// TupleBuffer returns a zeroed tuple of the set's width, for a search to
// build the tuples it adds in.
func (sc *Scratch) TupleBuffer() []int32 {
	if cap(sc.buf) < sc.width {
		sc.buf = make([]int32, sc.width)
	}
	sc.buf = sc.buf[:sc.width]
	clear(sc.buf)
	return sc.buf
}

// NumTuples returns the number of tuples added since the last NextEpoch.
func (sc *Scratch) NumTuples() int { return sc.numTuples }

// Tuple returns the i-th tuple in insertion order. The slice aliases the
// scratch; a tuple is never written once added, so the slice reads the
// same until the next NextEpoch, even while AddTuple grows the set.
func (sc *Scratch) Tuple(i int) []int32 { return sc.tuples[i*sc.width : (i+1)*sc.width] }

// AddTuple adds t, of the width given to AcquireScratch, to the tuple set
// and reports whether it was absent.
func (sc *Scratch) AddTuple(t []int32) bool {
	n := sc.NumTuples()
	if 2*(n+1) > len(sc.slotStamp) {
		sc.growTable()
	}
	mask := uint32(len(sc.slotStamp) - 1)
	for i := hashTuple(t) & mask; ; i = (i + 1) & mask {
		if sc.slotStamp[i] != sc.epoch {
			sc.slotStamp[i] = sc.epoch
			sc.slotTuple[i] = int32(n)
			sc.tuples = append(sc.tuples, t...)
			sc.numTuples++
			return true
		}
		if slices.Equal(sc.Tuple(int(sc.slotTuple[i])), t) {
			return false
		}
	}
}

// growTable doubles the slot table, keeping it at most half full, and
// re-indexes the current tuples.
func (sc *Scratch) growTable() {
	size := max(64, 2*len(sc.slotStamp))
	sc.slotStamp = make([]uint32, size)
	sc.slotTuple = make([]int32, size)
	mask := uint32(size - 1)
	for k, n := 0, sc.NumTuples(); k < n; k++ {
		i := hashTuple(sc.Tuple(k)) & mask
		for sc.slotStamp[i] == sc.epoch {
			i = (i + 1) & mask
		}
		sc.slotStamp[i] = sc.epoch
		sc.slotTuple[i] = int32(k)
	}
}

// hashTuple mixes each word with a multiply and folds the high half down,
// so tuples that differ only in high bits (node indices a table size apart)
// still spread over the low bits the mask keeps.
func hashTuple(t []int32) uint32 {
	h := uint64(len(t))
	for _, x := range t {
		h = (h ^ uint64(uint32(x))) * 0x9E3779B97F4A7C15
		h ^= h >> 32
	}
	return uint32(h)
}
