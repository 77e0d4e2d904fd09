package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer. Parent is the id of the span that
// caused it (−1 for a root); spans of one traced op share its Op number
// (−1 for set-up and cold-path spans, which belong to no op).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the timed phase runs the same code with tracing off.
type tracer struct {
	epoch time.Time
	op    int // op number stamped on new spans
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), op: -1, spans: make([]span, 0, 4096)}
}

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name,
		Start: int64(time.Since(t.epoch))})
	return id
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id].End = int64(time.Since(t.epoch))
	}
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its child spans cover. Children are clipped to the
// parent's interval and overlapping children are counted once.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// writeTrace writes the spans as one JSON document.
func writeTrace(dir, workload string, seed int64, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-%d.json", workload, seed))
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
