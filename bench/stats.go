package main

import (
	"math"
	"sort"
	"time"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), and 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of xs:
// the smallest sample with at least p percent of the samples at or below
// it. It returns 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (its default "exclusive" method), so
// the spreads this harness prints are the ones the driver computes. It
// needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	m := len(s)
	cut := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := i*(m+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// quartileSpread is (q3 − q1) / median: the run-to-run (or window-to-window)
// spread as a share of the typical value. 0 for fewer than two samples.
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// window is one slice of the timed phase: the latency of every op that ran
// in it, its wall time, and the process CPU time it consumed.
type window struct {
	latMS []float64
	wall  time.Duration
	cpu   time.Duration
}

func (w window) opsPerS() float64 { return float64(len(w.latMS)) / w.wall.Seconds() }

func (w window) cpuMSPerOp() float64 {
	return float64(w.cpu) / float64(time.Millisecond) / float64(len(w.latMS))
}

// windowStat is one per-window statistic of every window. Every window
// holds at least the op that opened it.
func windowStat(ws []window, stat func(window) float64) []float64 {
	vals := make([]float64, len(ws))
	for i, w := range ws {
		vals[i] = stat(w)
	}
	return vals
}

// overWindows is the median over the windows of one per-window statistic.
func overWindows(ws []window, stat func(window) float64) float64 {
	return median(windowStat(ws, stat))
}

func allLatencies(ws []window) []float64 {
	var all []float64
	for _, w := range ws {
		all = append(all, w.latMS...)
	}
	return all
}
