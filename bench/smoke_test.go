package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestEveryWorkloadEmitsEveryMetric runs each workload of BENCHMARK.json
// once with a one-second time box and the traced pass on, and checks that
// every metric the file names comes out finite, in the declared unit, with
// no failed op, and that the trace is written.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped with -short")
	}
	sp, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %v", len(sp.Workloads), workloadNames)
	}
	for _, w := range sp.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			out := t.TempDir()
			res, err := run(config{workload: w.Name, seed: 16, seconds: 1, trace: true, outDir: out})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			if got := res.endToEnd["ok_ratio"].Value; got != 1 {
				t.Errorf("ok_ratio = %v, want 1", got)
			}
			check := func(kind string, specs []metricSpec, got map[string]metric) {
				if len(got) != len(specs) {
					t.Errorf("%d %s metrics emitted, BENCHMARK.json names %d", len(got), kind, len(specs))
				}
				for _, m := range specs {
					v, ok := got[m.Name]
					switch {
					case !ok:
						t.Errorf("%s metric %s not emitted", kind, m.Name)
					case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
						t.Errorf("%s = %v", m.Name, v.Value)
					case v.Unit != m.Unit:
						t.Errorf("%s has unit %q, BENCHMARK.json says %q", m.Name, v.Unit, m.Unit)
					}
				}
			}
			check("end-to-end", sp.EndToEnd, res.endToEnd)
			check("per-layer", sp.PerLayer, res.perLayer)
			for _, m := range sp.EndToEnd {
				if res.endToEnd[m.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", m.Name, res.endToEnd[m.Name].Value)
				}
			}
			// The subtests share two cores, so the replay's parts need not
			// sum to the op here; they must only have been recorded.
			if c := res.perLayer["trace.coverage"].Value; c <= 0 {
				t.Errorf("trace.coverage = %v", c)
			}
			if _, err := os.Stat(filepath.Join(out, "trace-"+w.Name+"-16.json")); err != nil {
				t.Errorf("trace file: %v", err)
			}
		})
	}
}

// TestSeedChangesInputsAndExpectations checks that nothing is cached across
// seeds: another seed gives other inputs and recomputed expected answers.
func TestSeedChangesInputsAndExpectations(t *testing.T) {
	a, err := newServing("serve-point", 16)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newServing("serve-point", 17)
	if err != nil {
		t.Fatal(err)
	}
	again, err := newServing("serve-point", 16)
	if err != nil {
		t.Fatal(err)
	}
	if a.sc.GraphText == b.sc.GraphText {
		t.Error("seeds 16 and 17 generated the same graph")
	}
	if bytes.Equal(bytes.Join(a.expected, nil), bytes.Join(b.expected, nil)) {
		t.Error("seeds 16 and 17 expect the same answer bytes")
	}
	if a.sc.GraphText != again.sc.GraphText || !bytes.Equal(bytes.Join(a.expected, nil), bytes.Join(again.expected, nil)) {
		t.Error("seed 16 did not reproduce its inputs and expectations")
	}

	la, err := newLoading(16)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := newLoading(17)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(la.expected, lb.expected) {
		t.Error("ingest seeds 16 and 17 expect the same answer bytes")
	}
}

func TestUnknownWorkloadIsAnError(t *testing.T) {
	if _, err := run(config{workload: "nope", seconds: 1}); err == nil {
		t.Error("unknown workload accepted")
	}
}
