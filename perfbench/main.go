// Command perfbench is the repository benchmark: it runs one named
// workload against the igp library or the igpserve service, checks
// every output, and prints every metric by name and unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// Usage (from the repository root; see README.md):
//
//	bash perfbench/run.sh --workload mesh-adapt --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
// metrics from a traced run, whose spans are written under --trace-dir.
// --write-spec regenerates BENCHMARK.json from the metric registry.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// result is one run's outcome.
type result struct {
	attempted, failed int
	metrics           map[string]metricValue
	notes             []string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) add(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = map[string]metricValue{}
	}
	r.metrics[name] = metricValue{v, unit}
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// noteDist notes a latency distribution in ms: median, p90 and p99, each
// tail with the number of samples beyond it.
func (r *result) noteDist(what string, xs []float64) {
	r.notef("%s latency over %d samples: p50 %.4g ms, p90 %.4g ms (%d beyond), p99 %.4g ms (%d beyond)",
		what, len(xs), median(xs), quantile(xs, 0.90), beyond(xs, 0.90), quantile(xs, 0.99), beyond(xs, 0.99))
}

func main() {
	workload := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", runSeconds, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	traceDir := flag.String("trace-dir", ".bench_build/traces", "directory for span files")
	writeSpec := flag.String("write-spec", "", "write the benchmark description to this file and exit")
	flag.Parse()

	if *writeSpec != "" {
		if err := os.WriteFile(*writeSpec, specJSON(), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	res, err := run(*workload, *seed, *seconds, *trace == 1, *traceDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	want := endToEnd
	if *trace == 1 {
		want = perLayer
	}
	for _, m := range want {
		if _, ok := res.metrics[m.Name]; !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not report %s\n", *workload, m.Name)
			os.Exit(1)
		}
	}
	for name := range res.metrics {
		if !known(want, name) {
			fmt.Fprintf(os.Stderr, "perfbench: %s reported unlisted metric %s\n", *workload, name)
			os.Exit(1)
		}
	}
	for _, n := range res.notes {
		fmt.Println("#", n)
	}
	names := make([]string, 0, len(res.metrics))
	for name := range res.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.metrics[name]
		fmt.Printf("%-28s %14.6g %s\n", name, m.Value, m.Unit)
	}
	out, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, res.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// run dispatches one workload run.
func run(workload string, seed int64, seconds float64, trace bool, traceDir string) (*result, error) {
	switch workload {
	case meshAdapt.name:
		return runLibrary(meshAdapt, seed, seconds, trace, traceDir)
	case vcycleGrid.name:
		return runLibrary(vcycleGrid, seed, seconds, trace, traceDir)
	case vcyclePowerLaw.name:
		return runLibrary(vcyclePowerLaw, seed, seconds, trace, traceDir)
	case serveMixed:
		return runServe(seed, seconds, trace, traceDir)
	}
	return nil, fmt.Errorf("unknown workload %q", workload)
}
