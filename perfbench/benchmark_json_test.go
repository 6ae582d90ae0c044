package main

import (
	"encoding/json"
	"os"
	"testing"
)

// The metrics the benchmark is specified to print, in BENCHMARK.json's
// order. The program itself reads the names and units from
// BENCHMARK.json and fails a run that prints others.
var (
	wantEndToEnd = []string{"setup_s", "ops_per_s", "final_cost", "latency_ms_p50", "latency_ms_p95",
		"allocs_per_op", "alloc_mib_per_op", "live_heap_mib"}
	wantPerLayer = []string{
		"slicing.pack_us_per_move", "pins.snap_us_per_move", "mst.tree_us_per_move",
		"mst.two_pin_nets_per_move", "wl.eval_us_per_move", "fplan.evaluate_us_per_move",
		"core.score_us_per_move", "core.score_us_p95", "core.sweeps_per_move",
		"core.vec_memo_hit_ratio", "core.vec_reuse_per_move", "core.axis_hit_ratio",
		"core.dirty_nets_per_move", "core.full_fallbacks", "core.rollback_us_per_move",
		"anneal.accept_ratio", "core.evaluate_ms", "core.evaluate_seq_ms", "core.parallel_speedup",
		"core.topscore_ms", "congestion.facade_ms", "core.grid_cells", "core.simpson_memo_hit_ratio",
		"server.submit_ms_p50", "server.queue_wait_ms_p50", "server.queue_wait_ms_p95",
		"server.run_ms_p50", "server.result_ms_p50", "ckpt.save_ms_p50", "ckpt.bytes_per_save",
		"fplan.unattributed_share", "trace.overhead_share",
	}
)

// TestBenchmarkJSON checks that ../BENCHMARK.json declares exactly the
// workloads this program runs and the metrics it is specified to
// print, that the program can load it, and that it keeps within the
// benchmark contract's limits.
func TestBenchmarkJSON(t *testing.T) {
	if _, err := loadSpec("../BENCHMARK.json"); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metricDoc struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDoc `json:"end_to_end"`
		PerLayer []metricDoc `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d implemented", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d is %q, program runs %q", i, w.Name, workloads[i].name)
		}
		if !validName(w.Name) || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}
	seen := map[string]bool{}
	same := func(kind string, got []metricDoc, want []string, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics declared, %d specified", kind, len(got), len(want))
		}
		for i, m := range got {
			if i < len(want) && m.Name != want[i] {
				t.Errorf("%s %d: declared %s, specified %s", kind, i, m.Name, want[i])
			}
			if m.Unit == "" || len(m.Unit) > 16 {
				t.Errorf("%s: unit %q", m.Name, m.Unit)
			}
			if !validName(m.Name) || seen[m.Name] {
				t.Errorf("%s: name %q invalid or repeated", kind, m.Name)
			}
			seen[m.Name] = true
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
			if bounded != (m.Bound != nil) {
				t.Errorf("%s: bound present = %v, want %v", m.Name, m.Bound != nil, bounded)
			}
			if m.Bound != nil && (*m.Bound <= 0 || *m.Bound > 0.25) {
				t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, *m.Bound)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, wantEndToEnd, true)
	same("per_layer", doc.PerLayer, wantPerLayer, false)
	var setup, maxBound float64
	for _, m := range doc.EndToEnd {
		if m.Name == "setup_s" {
			setup = *m.Bound
		}
		if *m.Bound > maxBound {
			maxBound = *m.Bound
		}
	}
	if setup == 0 || setup < maxBound {
		t.Errorf("setup_s bound %g is not the largest (%g)", setup, maxBound)
	}
}
