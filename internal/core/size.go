package core

import (
	"sync"

	"repro/internal/datagraph"
)

// This file extends the datagraph byte-accounting layer to the core
// artifacts the serving memory governor charges against its budget:
// answer sets and whole materializations.

const (
	sizeMapEntry = 48
	sizeString   = 16
	sizeWord     = 8
)

// nodeBytes estimates one Node entry (id + value). The null value holds no
// datum (Value.Raw panics on it) and is sized as the empty string.
func nodeBytes(n datagraph.Node) int64 {
	b := int64(sizeString + len(n.ID) + sizeString + sizeWord)
	if !n.Value.IsNull() {
		b += int64(len(n.Value.Raw()))
	}
	return b
}

// SizeBytes estimates the answer set's resident footprint.
func (a *Answers) SizeBytes() int64 {
	var b int64 = 64
	for k, ans := range a.m {
		b += sizeMapEntry
		b += sizeString + int64(len(k[0])) + sizeString + int64(len(k[1]))
		b += nodeBytes(ans.From) + nodeBytes(ans.To)
	}
	return b
}

// sizeCache memoizes a materialization's byte estimate keyed on which
// artifacts exist, so the serving hot path can re-read the size after
// every query without re-walking unchanged graphs.
type sizeCache struct {
	mu    sync.Mutex
	key   uint32
	bytes int64
	valid bool
}

// SizeBytes estimates the resident footprint of every artifact this
// materialization has built so far — source pair sets, dom, solutions,
// value pools. It never forces a build: artifacts are observed through the
// memo peek. The walk is memoized keyed on the set of built artifacts, so
// repeated calls between builds are a mutex hit, not a graph traversal.
func (mat *Materialization) SizeBytes() int64 {
	key, bytes := uint32(0), int64(0)
	add := func(bit uint32, ok bool, sz func() int64) {
		if ok {
			key |= 1 << bit
			bytes += sz()
		}
	}
	// Probe cheaply first: the key is derived from the done flags alone.
	probe := uint32(0)
	flag := func(bit uint32, ok bool) {
		if ok {
			probe |= 1 << bit
		}
	}
	src, srcOK := mat.src.peek()
	domN, domNOK := mat.domN.peek()
	domID, domIDOK := mat.domID.peek()
	uni, uniOK := mat.uni.peek()
	li, liOK := mat.li.peek()
	nulls, nullsOK := mat.nulls.peek()
	vals, valsOK := mat.vals.peek()
	flag(0, srcOK)
	flag(1, domNOK)
	flag(2, domIDOK)
	flag(3, uniOK)
	flag(4, liOK)
	flag(5, nullsOK)
	flag(6, valsOK)
	mat.size.mu.Lock()
	if mat.size.valid && mat.size.key == probe {
		b := mat.size.bytes
		mat.size.mu.Unlock()
		return b
	}
	mat.size.mu.Unlock()

	add(0, srcOK, func() int64 {
		var b int64
		for _, ps := range src {
			b += ps.SizeBytes()
		}
		return b
	})
	add(1, domNOK, func() int64 {
		var b int64
		for _, n := range domN {
			b += nodeBytes(n)
		}
		return b
	})
	add(2, domIDOK, func() int64 {
		var b int64 = 64
		for id := range domID {
			b += sizeMapEntry + sizeString + int64(len(id))
		}
		return b
	})
	add(3, uniOK, uni.SizeBytes)
	add(4, liOK, li.SizeBytes)
	add(5, nullsOK, func() int64 {
		var b int64
		for _, id := range nulls {
			b += sizeString + int64(len(id))
		}
		return b
	})
	add(6, valsOK, func() int64 {
		var b int64
		for _, v := range vals {
			b += sizeString + int64(len(v.Raw())) + sizeWord
		}
		return b
	})

	mat.size.mu.Lock()
	mat.size.key, mat.size.bytes, mat.size.valid = key, bytes, true
	mat.size.mu.Unlock()
	return bytes
}
