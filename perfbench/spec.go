package main

import (
	"encoding/json"
	"fmt"
)

// The registry below is the single description of the benchmark:
// --write-spec renders it as BENCHMARK.json, and the tests check that
// the committed file matches it and that every run reports exactly the
// metrics listed here.

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const serveMixed = "serve-mixed"

var workloads = []workloadSpec{
	{meshAdapt.name, "the paper's scenario: one localized refinement per call on a 10^4-vertex mesh, P=64, flat IGPR at procs=1; the LP solves are the largest layer"},
	{vcycleGrid.name, "V-cycle on a 316x316 grid under 8-edit bursts with no growth: no degree skew, coarsening is about 40% of a call"},
	{vcyclePowerLaw.name, "V-cycle on a 2x10^4-vertex power-law graph under the same bursts: degree skew, coarsening is about 70% of a call"},
	{serveMixed, "igpserve over loopback: open-loop edits and assignment reads on 2 sessions, at a fixed reference rate"},
}

// maxLevels is the number of hierarchy levels reported one by one.
const maxLevels = 16

var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"call_cpu_ms", "ms", "lower", 0.25},
	{"edit_p50_ms", "ms", "lower", 0.25},
	{"read_p50_ms", "ms", "lower", 0.25},
	{"cut_frac", "ratio", "lower", 0.15},
	{"moved_per_call", "count", "lower", 0.25},
	{"live_heap_mb", "MB", "lower", 0.25},
}

var perLayer = func() []metricSpec {
	m := []metricSpec{
		{"lp.solve_ms", "ms", "lower", 0},
		{"lp.solves", "count", "lower", 0},
		{"lp.pivots", "count", "lower", 0},
		{"lp.pivots_per_solve", "count", "lower", 0},
		{"lp.parallel_solves", "count", "higher", 0},
		{"refine.refine_ms", "ms", "lower", 0},
		{"refine.rounds", "count", "lower", 0},
		{"refine.moved", "count", "lower", 0},
		{"balance.balance_ms", "ms", "lower", 0},
		{"balance.stages", "count", "lower", 0},
		{"balance.moved", "count", "lower", 0},
		{"layering.layer_ms", "ms", "lower", 0},
		{"engine.assign_ms", "ms", "lower", 0},
		{"engine.other_ms", "ms", "lower", 0},
		{"engine.allocs_per_call", "count", "lower", 0},
		{"coarsen.coarsen_ms", "ms", "lower", 0},
		{"coarsen.uncoarsen_ms", "ms", "lower", 0},
		{"coarsen.levels", "count", "lower", 0},
		{"coarsen.repaired_frac", "ratio", "higher", 0},
		{"coarsen.rebuilt_levels", "count", "lower", 0},
		{"coarsen.dissolve_amp", "ratio", "lower", 0},
	}
	for k := 0; k < maxLevels; k++ {
		m = append(m,
			metricSpec{fmt.Sprintf("coarsen.L%d.ms", k), "ms", "lower", 0},
			metricSpec{fmt.Sprintf("coarsen.L%d.dissolved", k), "count", "lower", 0})
	}
	return append(m,
		metricSpec{"graph.apply_ms", "ms", "lower", 0},
		metricSpec{"graph.csr_patched_frac", "ratio", "higher", 0},
		metricSpec{"spectral.rsb_s", "s", "lower", 0},
		metricSpec{"spectral.init_calls", "count", "lower", 0},
		metricSpec{"par.busy_frac", "ratio", "higher", 0},
		metricSpec{"serve.queue_wait_ms", "ms", "lower", 0},
		metricSpec{"serve.batch_size", "count", "higher", 0},
		metricSpec{"serve.repartition_ms", "ms", "lower", 0},
		metricSpec{"serve.http_ms", "ms", "lower", 0},
		metricSpec{"serve.shed_frac", "ratio", "lower", 0},
		metricSpec{"serve.max_rps", "1/s", "higher", 0},
		metricSpec{"gen.lag_ms", "ms", "lower", 0},
		metricSpec{"trace.overhead_frac", "ratio", "lower", 0},
		metricSpec{"trace.accounted_frac", "ratio", "higher", 0},
	)
}()

func known(ms []metricSpec, name string) bool {
	for _, m := range ms {
		if m.Name == name {
			return true
		}
	}
	return false
}

// specJSON renders BENCHMARK.json.
func specJSON() []byte {
	type perLayerSpec struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	pl := make([]perLayerSpec, len(perLayer))
	for i, m := range perLayer {
		pl[i] = perLayerSpec{m.Name, m.Unit, m.Better}
	}
	b, err := json.MarshalIndent(struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []perLayerSpec `json:"per_layer"`
	}{[]string{"bash", "perfbench/run.sh"}, []string{"perfbench"}, runSeconds, workloads, endToEnd, pl}, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(b, '\n')
}

// runSeconds is how long one run measures.
const runSeconds = 20
