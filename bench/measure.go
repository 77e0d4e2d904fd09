package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"syscall"
	"time"
)

const (
	setUps  = 7  // from-scratch set-ups per run, at least; the last one is measured on
	windows = 12 // slices of the timed phase
)

// config is one run of one workload.
type config struct {
	workload string
	seed     int64
	seconds  float64 // length of the timed phase
	trace    bool    // add the traced pass and report per-layer metrics
	outDir   string  // where the trace file goes
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a run reports; its JSON form is the driver's contract.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// endToEnd and perLayer are the two metric sets; Metrics is whichever
	// the run was asked for. client is the part of perLayer that comes from
	// the untraced timed phase, which every run has.
	endToEnd, client, perLayer map[string]metric
}

// measured carries a run's raw observations from the timed phase to the
// metric tables.
type measured struct {
	sc        scenario
	setUpS    []float64
	windows   []window
	attempted int
	failed    int
	firstErr  error
	allocKB   float64
	allocs    float64
	shed      uint64
	errors    uint64
	evictions uint64
}

// run measures one workload once: repeated set-up, the timed phase with
// tracing off, the fixed-count allocation pass and, if asked, the traced pass.
func run(cfg config) (*result, error) {
	sc, err := newScenario(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	m := &measured{sc: sc}
	// A traced run spends half its time box on the untraced phase and the
	// other half on traced ops, so both kinds of run cost about the same.
	phase := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		phase /= 2
	}
	// A set-up of a tenth of a second is too short to time steadily even
	// seven times over, so quick set-ups repeat until an eighth of the time
	// box has gone by.
	var in instance
	for begin := time.Now(); len(m.setUpS) < setUps || time.Since(begin) < phase/8; {
		if in != nil {
			in.close()
		}
		start := time.Now()
		if in, err = sc.setUp(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		m.setUpS = append(m.setUpS, time.Since(start).Seconds())
	}
	defer in.close()

	before, err := in.stats()
	if err != nil {
		return nil, err
	}
	runtime.GC()
	m.timedPhase(in, phase)
	m.allocPass(in)
	after, err := in.stats()
	if err != nil {
		return nil, err
	}
	m.shed = after.RejectedOverloaded + after.RejectedRateLimited - before.RejectedOverloaded - before.RejectedRateLimited
	m.errors = after.Errors - before.Errors
	m.evictions = after.Evictions - before.Evictions

	res := &result{endToEnd: m.endToEnd(), client: m.client()}
	res.Metrics = res.endToEnd
	if cfg.trace {
		layers, err := m.tracedPass(in, tr, phase)
		if err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
		path, err := writeTrace(cfg.outDir, cfg.workload, cfg.seed, tr.spans)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "trace: %d spans in %s\n", len(tr.spans), path)
		res.perLayer, res.Metrics = layers, layers
	}
	if m.firstErr != nil {
		fmt.Fprintf(os.Stderr, "first failed op: %v\n", m.firstErr)
	}
	res.Attempted, res.Failed, res.Correct = m.attempted, m.failed, m.failed == 0
	for name, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("metric %s is not finite", name)
		}
	}
	return res, nil
}

// check counts one op's outcome.
func (m *measured) check(err error) {
	m.attempted++
	if err != nil {
		m.failed++
		if m.firstErr == nil {
			m.firstErr = err
		}
	}
}

// timedPhase is the closed loop: one client, the next op sent when the
// previous one's reply has been read and checked, for `windows` windows of
// phase/windows each. An op belongs to the window it started in.
func (m *measured) timedPhase(in instance, phase time.Duration) {
	n := m.sc.cycle()
	i := 0
	for w := 0; w < windows; w++ {
		var win window
		start, cpu := time.Now(), cpuTime()
		for time.Since(start) < phase/windows {
			t0 := time.Now()
			_, err := in.op(nil, -1, i%n)
			win.latMS = append(win.latMS, float64(time.Since(t0))/float64(time.Millisecond))
			m.check(err)
			i++
		}
		win.wall, win.cpu = time.Since(start), cpuTime()-cpu
		m.windows = append(m.windows, win)
	}
}

// allocPass measures allocation over a fixed number of ops, so the counts
// do not depend on how many ops fitted the time box.
func (m *measured) allocPass(in instance) {
	n, ops := m.sc.cycle(), m.sc.allocOps()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < ops; i++ {
		_, err := in.op(nil, -1, i%n)
		m.check(err)
	}
	runtime.ReadMemStats(&after)
	m.allocKB = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(ops)
	m.allocs = float64(after.Mallocs-before.Mallocs) / float64(ops)
}

// cpuTime is the process's user+system CPU time so far: server, client and
// garbage collector together, since they share the process.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (m *measured) endToEnd() map[string]metric {
	return map[string]metric{
		"setup_s":         {median(m.setUpS), "s"},
		"alloc_kb_per_op": {m.allocKB, "KB"},
		"allocs_per_op":   {m.allocs, "count"},
		"ok_ratio":        {float64(m.attempted-m.failed) / float64(m.attempted), "ratio"},
	}
}

// client is what the one client saw in the untraced timed phase. On this
// machine these timings repeat only within a quarter or so from one run to
// the next, so they are reported as per-layer metrics and not gated.
func (m *measured) client() map[string]metric {
	lat := allLatencies(m.windows)
	return map[string]metric{
		"client.ops":           {float64(len(lat)), "count"},
		"client.op_p50_ms":     {overWindows(m.windows, func(w window) float64 { return median(w.latMS) }), "ms"},
		"client.op_p90_ms":     {percentile(lat, 90), "ms"},
		"client.op_p99_ms":     {percentile(lat, 99), "ms"},
		"client.ops_per_s":     {overWindows(m.windows, window.opsPerS), "1/s"},
		"client.cpu_ms_per_op": {overWindows(m.windows, window.cpuMSPerOp), "ms"},
		"client.window_spread": {quartileSpread(windowStat(m.windows, window.opsPerS)), "ratio"},
	}
}
