package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); !near(got, c.want) {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[99-i] = float64(i + 1) // 100 … 1
	}
	for _, c := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{hundred, 50, 50},
		{hundred, 90, 90},
		{hundred, 99, 99},
		{hundred, 100, 100},
		{[]float64{1, 2, 3, 4}, 50, 2},
		{[]float64{1, 2, 3, 4}, 90, 4},
		{[]float64{5}, 99, 5},
		{nil, 99, 0},
	} {
		if got := percentile(c.xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%d samples, %v) = %v, want %v", len(c.xs), c.p, got, c.want)
		}
	}
}

// The expected cut points are what Python 3's statistics.quantiles(xs, n=4)
// prints for the same samples.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 12, 11, 15, 9}, [3]float64{9.5, 11, 13.5}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.want[0]) || !near(q2, c.want[1]) || !near(q3, c.want[2]) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
	if got := quartileSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("quartileSpread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := quartileSpread([]float64{4}); got != 0 {
		t.Errorf("quartileSpread of one sample = %v, want 0", got)
	}
}

func TestWindowStatistics(t *testing.T) {
	ws := []window{
		{latMS: []float64{1, 2, 9}, wall: time.Second, cpu: 300 * time.Millisecond},
		{latMS: []float64{4, 4}, wall: 500 * time.Millisecond, cpu: 100 * time.Millisecond},
		{latMS: []float64{3, 5, 7, 100}, wall: 2 * time.Second, cpu: 2 * time.Second},
	}
	// Window medians 2, 4, 6: one slow op in the last window moves nothing.
	if got := overWindows(ws, func(w window) float64 { return median(w.latMS) }); !near(got, 4) {
		t.Errorf("median of window medians = %v, want 4", got)
	}
	// Rates 3/s, 4/s, 2/s.
	if got := overWindows(ws, window.opsPerS); !near(got, 3) {
		t.Errorf("median window rate = %v, want 3", got)
	}
	// CPU per op 100 ms, 50 ms, 500 ms.
	if got := overWindows(ws, window.cpuMSPerOp); !near(got, 100) {
		t.Errorf("median window cpu per op = %v, want 100", got)
	}
	if got := len(allLatencies(ws)); got != 9 {
		t.Errorf("allLatencies kept %d samples, want 9", got)
	}
}
