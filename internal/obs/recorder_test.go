package obs

import (
	"path/filepath"
	"testing"
)

func TestRecorderRingWrap(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 11; i++ {
		r.Record(RecorderEvent{Kind: RecMove, Step: i})
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	if r.Seq() != 11 {
		t.Fatalf("Seq = %d, want 11", r.Seq())
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("%d events, want 4", len(evs))
	}
	for i, ev := range evs {
		wantStep := 7 + i // oldest-first: steps 7..10 survive
		if ev.Step != wantStep {
			t.Errorf("event %d step %d, want %d", i, ev.Step, wantStep)
		}
		if i > 0 && ev.Seq <= evs[i-1].Seq {
			t.Errorf("event %d seq %d not increasing after %d", i, ev.Seq, evs[i-1].Seq)
		}
		if ev.UnixNs == 0 {
			t.Errorf("event %d missing timestamp", i)
		}
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	r.Record(RecorderEvent{Kind: RecMove})
	if r.Len() != 0 || r.Seq() != 0 || r.Events() != nil {
		t.Error("nil recorder should be empty")
	}
	r.Arm("x", PostmortemInfo{}, nil, nil, nil)
	path, err := r.Dump("test")
	if path != "" || err != nil {
		t.Errorf("nil Dump = (%q, %v), want no-op", path, err)
	}
}

func TestRecorderDumpUnarmed(t *testing.T) {
	r := NewRecorder(8)
	r.Record(RecorderEvent{Kind: RecMove})
	path, err := r.Dump("test")
	if path != "" || err != nil {
		t.Errorf("unarmed Dump = (%q, %v), want no-op", path, err)
	}
}

func TestRecorderPostmortemRoundtrip(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "run.postmortem.json")

	reg := NewRegistry()
	reg.Counter("anneal_moves_total").Add(99)
	sp := NewSpans()
	sp.Start("run").End()
	st := NewStatus()
	st.Begin("tiny", "ir-grid", 7)
	st.Schedule(10, 5)
	st.Step(3, 2.5, 100, 90, 0.5, 15)

	r := NewRecorder(8)
	info := PostmortemInfo{Version: "v-test", ConfigDigest: "abc", Circuit: "tiny", Model: "ir-grid", Seed: 7}
	r.Arm(out, info, reg, sp, st)
	for i := 0; i < 3; i++ {
		r.Record(RecorderEvent{Kind: RecMove, Step: i, Cost: float64(100 - i)})
	}
	r.Record(RecorderEvent{Kind: RecCheckpoint, Note: "write: boom"})

	path, err := r.Dump("canceled")
	if err != nil {
		t.Fatal(err)
	}
	if path != out {
		t.Fatalf("Dump path %q, want %q", path, out)
	}

	pm, err := LoadPostmortem(out)
	if err != nil {
		t.Fatal(err)
	}
	if pm.Info != info {
		t.Errorf("info %+v, want %+v", pm.Info, info)
	}
	if pm.Reason != "canceled" {
		t.Errorf("reason %q", pm.Reason)
	}
	if pm.TotalEvents != 4 || len(pm.Events) != 4 {
		t.Errorf("events %d (total %d), want 4", len(pm.Events), pm.TotalEvents)
	}
	if pm.Events[3].Kind != RecCheckpoint || pm.Events[3].Note != "write: boom" {
		t.Errorf("last event %+v", pm.Events[3])
	}
	if pm.Metrics["anneal_moves_total"] != 99 {
		t.Errorf("metrics %v missing counter snapshot", pm.Metrics)
	}
	if len(pm.Spans) != 1 || pm.Spans[0].Path != "run" {
		t.Errorf("spans %+v", pm.Spans)
	}
	if pm.Status == nil || pm.Status.Circuit != "tiny" || pm.Status.Step != 3 {
		t.Errorf("status %+v", pm.Status)
	}
	if pm.UnixNs == 0 {
		t.Error("missing dump timestamp")
	}
}

func TestRecorderDefaultCapacity(t *testing.T) {
	r := NewRecorder(0)
	for i := 0; i < DefaultRecorderEvents+5; i++ {
		r.Record(RecorderEvent{Kind: RecMove, Step: i})
	}
	if r.Len() != DefaultRecorderEvents {
		t.Errorf("Len = %d, want default %d", r.Len(), DefaultRecorderEvents)
	}
}

// TestRecorderDisabledZeroAlloc pins the disabled path: a nil
// recorder's Record is allocation-free (callers additionally gate on
// the handle, skipping even the event construction).
func TestRecorderDisabledZeroAlloc(t *testing.T) {
	var r *Recorder
	allocs := testing.AllocsPerRun(1000, func() {
		r.Record(RecorderEvent{Kind: RecMove, Step: 1, Cost: 2, Best: 3})
	})
	if allocs != 0 {
		t.Errorf("nil Record allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestRecorderEnabledAllocFree pins the armed hot path: ring writes
// allocate nothing once the buffer exists.
func TestRecorderEnabledAllocFree(t *testing.T) {
	r := NewRecorder(64)
	allocs := testing.AllocsPerRun(1000, func() {
		r.Record(RecorderEvent{Kind: RecMove, Step: 1, Cost: 2, Best: 3, Accepted: true})
	})
	if allocs != 0 {
		t.Errorf("ring Record allocates %.1f allocs/op, want 0", allocs)
	}
}
