package obs

import (
	"time"

	"irgrid/internal/ckpt"
)

// PostmortemMagic and PostmortemVersion identify postmortem dump
// files. They ride the same versioned, checksummed, atomically
// written envelope as checkpoints (internal/ckpt), so a crash during
// the dump itself can never leave a truncated file behind.
const (
	PostmortemMagic   = "irgrid-postmortem"
	PostmortemVersion = 1
)

// PostmortemInfo is the run identity block of a postmortem: what
// binary ran what configuration.
type PostmortemInfo struct {
	// Version is the buildinfo one-liner of the producing binary.
	Version string `json:"version"`
	// ConfigDigest is the run's deterministic configuration digest
	// (the same digest checkpoints are keyed by).
	ConfigDigest string `json:"config_digest,omitempty"`
	// Circuit names the input circuit.
	Circuit string `json:"circuit,omitempty"`
	// Model names the congestion estimator in use.
	Model string `json:"model,omitempty"`
	// Seed is the run's RNG seed.
	Seed int64 `json:"seed"`
}

// Postmortem is the payload of a flight-recorder dump: identity,
// reason, a snapshot of every observability surface, and the most
// recent ring events oldest-first.
type Postmortem struct {
	Info PostmortemInfo `json:"info"`
	// Reason is why the dump was taken: "job_panic", "canceled",
	// "deadline", "sigquit", ...
	Reason string `json:"reason"`
	// UnixNs is the dump capture time.
	UnixNs int64 `json:"unix_ns"`
	// TotalEvents is the lifetime event count; len(Events) is only
	// the retained tail.
	TotalEvents int64 `json:"total_events"`
	// Metrics is the registry snapshot at dump time, if a registry
	// was armed.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Spans holds per-path span aggregates at dump time.
	Spans []SpanAggregate `json:"spans,omitempty"`
	// Status is the live run-status snapshot at dump time.
	Status *StatusSnapshot `json:"status,omitempty"`
	// Events is the flight-recorder ring, oldest-first.
	Events []RecorderEvent `json:"events"`
}

// Dump writes a postmortem file for the given reason and returns its
// path. It is a no-op returning ("", nil) when the recorder is nil or
// was never armed with a destination, so fault paths can call it
// unconditionally. Dump may be called more than once (e.g. a watchdog
// stall followed by cancellation); each call rewrites the file
// atomically with the then-current state.
func (r *Recorder) Dump(reason string) (string, error) {
	if r == nil {
		return "", nil
	}
	r.mu.Lock()
	path := r.path
	if path == "" {
		r.mu.Unlock()
		return "", nil
	}
	pm := Postmortem{
		Info:        r.info,
		Reason:      reason,
		UnixNs:      time.Now().UnixNano(),
		TotalEvents: r.seq,
		Events:      r.eventsLocked(),
	}
	reg, spans, status := r.reg, r.spans, r.status
	r.mu.Unlock()

	// Snapshot the other surfaces outside r.mu: they have their own
	// locks and may be fed concurrently by the run we are dumping.
	if reg != nil {
		pm.Metrics = reg.Snapshot()
	}
	pm.Spans = spans.Aggregates()
	if status != nil {
		snap := status.Snapshot()
		pm.Status = &snap
	}
	if err := ckpt.SaveAs(path, PostmortemMagic, PostmortemVersion, pm); err != nil {
		return "", err
	}
	return path, nil
}

// LoadPostmortem reads and verifies a postmortem dump written by
// Recorder.Dump.
func LoadPostmortem(path string) (*Postmortem, error) {
	var pm Postmortem
	if err := ckpt.LoadAs(path, PostmortemMagic, PostmortemVersion, &pm); err != nil {
		return nil, err
	}
	return &pm, nil
}
