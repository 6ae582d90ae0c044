package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"irgrid/floorplan"
	"irgrid/internal/server"
	"irgrid/internal/server/harness"
	"irgrid/telemetry"
)

// testRequest is the standard small-but-real job every e2e test
// submits: the golden suite's fixed schedule on a named benchmark.
func testRequest(bench string, seed int64) *server.JobRequest {
	return &server.JobRequest{
		Benchmark: bench,
		Options: server.RunOptions{
			Alpha: 0.4, Beta: 0.2, Gamma: 0.4,
			Model: floorplan.ModelIRGrid, Pitch: 30,
			Seed:         seed,
			MovesPerTemp: 20,
			MaxTemps:     15,
		},
	}
}

// directOptions mirrors testRequest as floorplan.Options for the
// reference run.
func directOptions(seed int64) floorplan.Options {
	return floorplan.Options{
		Alpha: 0.4, Beta: 0.2, Gamma: 0.4,
		Congestion:   floorplan.Congestion{Model: floorplan.ModelIRGrid, Pitch: 30},
		Seed:         seed,
		MovesPerTemp: 20,
		MaxTemps:     15,
	}
}

// assertResultMatchesDirect proves the service computed exactly what
// a direct library call computes: every deterministic field of the
// result — chip metrics, costs, and each placed rectangle — must be
// bit-identical (float64 == is bitwise for non-NaN values, and JSON
// round-trips float64 exactly).
func assertResultMatchesDirect(t *testing.T, got *server.JobResult, want *floorplan.Result) {
	t.Helper()
	if got.Circuit != want.Circuit {
		t.Errorf("circuit = %q, want %q", got.Circuit, want.Circuit)
	}
	pairs := []struct {
		name      string
		got, want float64
	}{
		{"chip_w", got.ChipW, want.ChipW},
		{"chip_h", got.ChipH, want.ChipH},
		{"area", got.Area, want.Area},
		{"wirelength", got.Wirelength, want.Wirelength},
		{"congestion_cost", got.CongestionCost, want.CongestionCost},
		{"cost", got.Cost, want.Cost},
	}
	for _, p := range pairs {
		if p.got != p.want {
			t.Errorf("%s = %v, want %v (not bit-identical)", p.name, p.got, p.want)
		}
	}
	if got.Temperatures != want.Temperatures || got.Moves != want.Moves ||
		got.CalibrationMoves != want.CalibrationMoves || got.Accepted != want.Accepted {
		t.Errorf("schedule stats = (%d,%d,%d,%d), want (%d,%d,%d,%d)",
			got.Temperatures, got.Moves, got.CalibrationMoves, got.Accepted,
			want.Temperatures, want.Moves, want.CalibrationMoves, want.Accepted)
	}
	if len(got.Modules) != len(want.Modules) {
		t.Fatalf("placed %d modules, want %d", len(got.Modules), len(want.Modules))
	}
	for i, m := range got.Modules {
		w := want.Modules[i]
		if m != w {
			t.Errorf("module %d = %+v, want %+v", i, m, w)
		}
	}
}

// TestSubmitPollResultBitIdentical is the service's core contract:
// a job submitted over HTTP returns, bit for bit, the result of a
// direct floorplan.Run with the same circuit, options and seed.
func TestSubmitPollResultBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("anneals two benchmarks end to end")
	}
	ts := harness.StartTestServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	for _, bench := range []string{"apte", "ami33"} {
		st, err := ts.Submit(ctx, testRequest(bench, 7))
		if err != nil {
			t.Fatalf("%s: submit: %v", bench, err)
		}
		if st.State != server.StateQueued {
			t.Errorf("%s: accepted state = %q, want queued", bench, st.State)
		}
		final, err := ts.WaitTerminal(ctx, st.ID)
		if err != nil {
			t.Fatalf("%s: wait: %v", bench, err)
		}
		if final.State != server.StateDone || final.Outcome != telemetry.OutcomeCompleted {
			t.Fatalf("%s: final state %q outcome %q error %q, want done/completed",
				bench, final.State, final.Outcome, final.Error)
		}
		got, err := ts.Result(ctx, st.ID)
		if err != nil {
			t.Fatalf("%s: result: %v", bench, err)
		}

		c, err := floorplan.Benchmark(bench)
		if err != nil {
			t.Fatal(err)
		}
		want, err := floorplan.Run(c, directOptions(7))
		if err != nil {
			t.Fatal(err)
		}
		assertResultMatchesDirect(t, got, want)
	}
}

// TestEventsStreamCarriesRunTrace pins the /events surface: a
// finished job's stream decodes as the run tracer's JSONL — a
// run_start..run_end block with per-temperature events and the span
// forest between them.
func TestEventsStreamCarriesRunTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("anneals a benchmark end to end")
	}
	ts := harness.StartTestServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	st, err := ts.Submit(ctx, testRequest("apte", 3))
	if err != nil {
		t.Fatal(err)
	}
	// follow=1 tails the live trace until the job is terminal.
	recs, err := ts.Events(ctx, st.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("followed events stream is empty")
	}
	count := map[string]int{}
	for _, r := range recs {
		count[r.Ev]++
	}
	for _, ev := range []string{telemetry.EvRunStart, telemetry.EvTemp, telemetry.EvSpans, telemetry.EvRunEnd} {
		if count[ev] == 0 {
			t.Errorf("events stream missing %q (got %v)", ev, count)
		}
	}
	if recs[len(recs)-1].Ev != telemetry.EvRunEnd {
		t.Errorf("last event = %q, want run_end", recs[len(recs)-1].Ev)
	}

	// The job's terminal status carries its span forest.
	final, err := ts.WaitTerminal(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(final.Spans) == 0 {
		t.Error("terminal status has no span aggregates")
	}
}

// TestDeprecatedWorkersFieldAccepted pins wire compatibility: the
// "workers" option no longer does anything, but a request that still
// carries it is accepted (strict decoding must not reject it) and
// returns the same bits as a direct run.
func TestDeprecatedWorkersFieldAccepted(t *testing.T) {
	ts := harness.StartTestServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	req := testRequest("apte", 11)
	req.Options.MovesPerTemp, req.Options.MaxTemps = 4, 2
	req.Options.Workers = 2
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(body, []byte(`"workers":2`)) {
		t.Fatalf("request body %s does not carry the workers field", body)
	}
	st, err := ts.SubmitRaw(ctx, body)
	if err != nil {
		t.Fatalf("submit with workers set: %v", err)
	}
	fin, err := ts.WaitTerminal(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != server.StateDone {
		t.Fatalf("job finished %q (%s), want done", fin.State, fin.Error)
	}
	got, err := ts.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	c, err := floorplan.Benchmark("apte")
	if err != nil {
		t.Fatal(err)
	}
	opts := directOptions(11)
	opts.MovesPerTemp, opts.MaxTemps = 4, 2
	want, err := floorplan.Run(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertResultMatchesDirect(t, got, want)
}
