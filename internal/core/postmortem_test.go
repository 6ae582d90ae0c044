package core

import (
	"testing"

	"irgrid/internal/obs"
)

// TestRecorderEvalEvents pins the eval event stream: every Evaluate
// through a recorder-attached model appends one timed eval event.
func TestRecorderEvalEvents(t *testing.T) {
	chip := engineChip()
	nets := engineNets(64)
	rec := obs.NewRecorder(8)
	e := Model{Pitch: 4, Recorder: rec}.NewEvaluator()
	e.Evaluate(chip, nets)
	e.Evaluate(chip, nets)
	evs := rec.Events()
	if len(evs) != 2 {
		t.Fatalf("%d events, want 2", len(evs))
	}
	for i, ev := range evs {
		if ev.Kind != obs.RecEval {
			t.Errorf("event %d kind %q", i, ev.Kind)
		}
		if ev.Ns <= 0 {
			t.Errorf("event %d has no duration", i)
		}
	}
}
