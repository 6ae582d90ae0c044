package main

import (
	"math"
	"strings"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: the helpers must sort
	}
	return xs
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{200, 0.95, 190, true}, // rank 190, exactly 10 beyond
		{199, 0.95, 0, false},  // rank 190, 9 beyond
		{100, 0.90, 90, true},
		{100, 0.95, 0, false},
		{20, 0.50, 10, true},
		{0, 0.50, 0, false},
	} {
		got, ok := percentile(seq(tc.n), tc.p)
		if ok != tc.ok || got != tc.want {
			t.Errorf("percentile(1..%d, %g) = %g, %v; want %g, %v", tc.n, tc.p, got, ok, tc.want, tc.ok)
		}
	}
}

func TestSummarizeReportsSampleCount(t *testing.T) {
	l, err := summarize(seq(400))
	if err != nil {
		t.Fatal(err)
	}
	if l.N != 400 || l.P50 != 200.5 || l.P95 != 380 {
		t.Errorf("summarize(1..400) = %+v, want N=400 P50=200.5 P95=380", l)
	}
	if _, err := summarize(seq(150)); err == nil {
		t.Error("summarize accepted a p95 with fewer than ten samples beyond it")
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	got := spread(seq(10))
	if want := (8.25 - 2.75) / 5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread(1..10) = %g, want %g", got, want)
	}
}

func TestNameGrammar(t *testing.T) {
	for _, s := range []string{"setup_s", "core.score_us_p95", "anneal-ami33", "0x", "a"} {
		if !validName(s) {
			t.Errorf("validName(%q) = false", s)
		}
	}
	for _, s := range []string{"", "_x", ".x", "a b", "a/b", "ops/s", strings.Repeat("a", 65)} {
		if validName(s) {
			t.Errorf("validName(%q) = true", s)
		}
	}
}

func TestUnattributedShare(t *testing.T) {
	for _, tc := range []struct {
		whole float64
		parts []float64
		want  float64
	}{
		{100, []float64{60, 30, 10}, 0},
		{100, []float64{50, 25}, 0.25},
		{100, []float64{80, 40}, -0.2},
		{0, []float64{1}, 0},
	} {
		if got := unattributedShare(tc.whole, tc.parts...); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("unattributedShare(%g, %v) = %g, want %g", tc.whole, tc.parts, got, tc.want)
		}
	}
}

func metricValue(t *testing.T, rep *report, name string) float64 {
	t.Helper()
	for _, m := range rep.metrics {
		if m.Name == name {
			return m.Value
		}
	}
	t.Fatalf("metric %s not reported", name)
	return 0
}

func TestEndToEndAveragesPerInput(t *testing.T) {
	// Input 1 ran three times at 10 ops/s, input 2 once at 40 ops/s:
	// pooled, the median rate would be 10; per input it is (10+40)/2.
	rep := &report{}
	reps := []sample{
		{wall: 1, ops: 10, key: 1, cost: 3, setup: 1, lat: seq(200)},
		{wall: 1, ops: 10, key: 1, cost: 3, setup: 1, lat: seq(200)},
		{wall: 1, ops: 10, key: 1, cost: 3, setup: 1, lat: seq(200)},
		{wall: 1, ops: 40, key: 2, cost: 5, setup: 3, lat: seq(400)},
	}
	if err := endToEnd(rep, reps, "ops"); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"ops_per_s":      25,
		"final_cost":     4,
		"setup_s":        2,
		"latency_ms_p50": (100.5 + 200.5) / 2,
		"latency_ms_p95": (190 + 380) / 2,
	} {
		if got := metricValue(t, rep, name); got != want {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
	if rep.failed != 0 {
		t.Errorf("%d checks failed on repeatable inputs", rep.failed)
	}

	rep = &report{}
	reps[1].cost = 3.5
	if err := endToEnd(rep, reps, "ops"); err != nil {
		t.Fatal(err)
	}
	if rep.failed != 1 {
		t.Errorf("a repetition with another final cost failed %d checks, want 1", rep.failed)
	}
}

func TestCompleteChecksDeclaredMetrics(t *testing.T) {
	want := []metric{{Name: "a", Unit: "s"}, {Name: "b", Unit: "ms"}}
	rep := &report{}
	rep.add("a", 1, "s")
	rep.complete(want, false)
	if rep.failed != 1 {
		t.Errorf("missing end-to-end metric failed %d checks, want 1", rep.failed)
	}
	rep = &report{}
	rep.add("a", 1, "ms")
	rep.complete(want, true)
	if rep.failed != 1 || len(rep.metrics) != 2 || rep.metrics[1].Name != "b" || rep.metrics[1].Value != 0 {
		t.Errorf("per-layer completion: failed %d, metrics %+v", rep.failed, rep.metrics)
	}
}
