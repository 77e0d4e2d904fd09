// Command bench is the repository's benchmark: four closed-loop workloads
// over the two canonical paths — the request (client → gsmd → governor →
// session → kernel → answers → JSON) and the load (ingest → freeze → chase →
// first certain answer). One invocation runs one workload in one process,
// checks every answer, and prints every metric by name with its unit; the
// last line of standard output is the JSON object BENCHMARK.json's driver
// reads. See README.md for what each metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
)

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", fmt.Sprintf("one of %v", workloadNames))
	flag.Int64Var(&cfg.seed, "seed", 16, "seed of the generated inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 24, "length of the timed phase")
	trace := flag.Int("trace", 0, "1: halve the timed phase, add the traced pass and report the per-layer metrics")
	flag.StringVar(&cfg.outDir, "out", "bench/out", "directory for trace files")
	aa := flag.Int("aa", 0, "A/A self-check: run every workload N+N times and compare the two sets")
	flag.Parse()
	cfg.trace = *trace != 0
	if cfg.seconds <= 0 || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}

	if *aa > 0 {
		ok, err := selfCheck(cfg, *aa)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	printMetrics(res.endToEnd)
	if res.perLayer == nil {
		printMetrics(res.client)
	}
	printMetrics(res.perLayer)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-30s %14.4f %s\n", name, ms[name].Value, ms[name].Unit)
	}
}

// spec is the part of BENCHMARK.json the harness itself reads: the metric
// names it must emit and the bounds the A/A self-check holds them to.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// ungated are the timed phase's metrics the self-check also reports: no
// bound holds them, but their A/A difference is what a reader needs to know
// before reading anything into two timings.
var ungated = []string{"client.op_p50_ms", "client.ops_per_s", "client.cpu_ms_per_op"}

// selfCheck runs every workload n+n times on this one binary, alternating
// the two sets, and compares their medians metric by metric against the
// bounds in BENCHMARK.json: same code must agree with itself.
func selfCheck(cfg config, n int) (bool, error) {
	sp, err := readSpec("BENCHMARK.json")
	if err != nil {
		return false, err
	}
	cfg.trace = false
	ok := true
	fmt.Printf("%-14s %-22s %12s %12s %8s %8s %8s\n", "workload", "metric", "median A", "median B", "diff", "spread", "bound")
	for _, w := range sp.Workloads {
		cfg.workload = w.Name
		sets := [2]map[string][]float64{{}, {}}
		for r := 0; r < 2*n; r++ {
			res, err := run(cfg)
			if err != nil {
				return false, fmt.Errorf("%s: %w", w.Name, err)
			}
			if !res.Correct {
				return false, fmt.Errorf("%s: %d of %d ops failed", w.Name, res.Failed, res.Attempted)
			}
			for _, ms := range []map[string]metric{res.endToEnd, res.client} {
				for name, m := range ms {
					sets[r%2][name] = append(sets[r%2][name], m.Value)
				}
			}
		}
		row := func(name, bound string) float64 {
			a, b := median(sets[0][name]), median(sets[1][name])
			diff := math.Abs(b-a) / a
			all := append(append([]float64(nil), sets[0][name]...), sets[1][name]...)
			fmt.Printf("%-14s %-22s %12.4f %12.4f %7.2f%% %7.2f%% %8s\n",
				w.Name, name, a, b, 100*diff, 100*quartileSpread(all), bound)
			return diff
		}
		for _, m := range sp.EndToEnd {
			if row(m.Name, fmt.Sprintf("%.1f%%", 100*m.Bound)) > m.Bound {
				fmt.Printf("%-14s %-22s exceeds its bound\n", w.Name, m.Name)
				ok = false
			}
		}
		for _, name := range ungated {
			row(name, "-")
		}
	}
	return ok, nil
}
