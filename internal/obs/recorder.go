package obs

import (
	"sync"
	"time"
)

// RecorderEvent kinds. Stored as interned constant strings so ring
// writes never allocate and dumps stay human-readable.
const (
	// RecMove is one annealing move (accept or reject).
	RecMove = "move"
	// RecTemp is one completed temperature step.
	RecTemp = "temp"
	// RecEval is one full (non-delta) evaluator pass.
	RecEval = "eval"
	// RecCheckpoint is one checkpoint write attempt.
	RecCheckpoint = "checkpoint"
)

// RecorderEvent is one entry in the flight-recorder ring. It is a
// flat value struct so recording is a copy into preallocated storage —
// no pointers, no allocation.
type RecorderEvent struct {
	// Seq is the global 1-based sequence number of the event; the ring
	// keeps only the most recent N but Seq reveals how many came
	// before.
	Seq int64 `json:"seq"`
	// UnixNs is the wall-clock capture time.
	UnixNs int64 `json:"unix_ns"`
	// Kind is one of the Rec* constants.
	Kind string `json:"kind"`
	// Step is the temperature step the event belongs to, when known.
	Step int `json:"step,omitempty"`
	// Temp is the annealing temperature at capture time.
	Temp float64 `json:"temp,omitempty"`
	// Cost is the current solution cost (for moves/temps) or the
	// evaluated score (for evals).
	Cost float64 `json:"cost,omitempty"`
	// Best is the best cost seen so far.
	Best float64 `json:"best,omitempty"`
	// Delta is the move's cost delta (moves only).
	Delta float64 `json:"delta,omitempty"`
	// Accepted reports whether a move was accepted.
	Accepted bool `json:"accepted,omitempty"`
	// Ns is the event's duration, when the producer timed it.
	Ns int64 `json:"ns,omitempty"`
	// Note carries kind-specific detail (checkpoint error, ...). Producers must pass constants or preformatted
	// strings from cold paths only.
	Note string `json:"note,omitempty"`
}

// Recorder is a black-box flight recorder: a fixed-size ring of the
// most recent events, preallocated up front so steady-state Record
// calls copy into existing storage and never allocate. On a fault
// (job panic, cancellation, SIGQUIT) Dump writes a postmortem file
// capturing the ring together with build/config identity, the metrics
// snapshot and span aggregates.
//
// All methods are safe on a nil receiver and safe for concurrent use.
type Recorder struct {
	mu   sync.Mutex
	buf  []RecorderEvent
	next int   // next write position
	n    int   // number of valid entries (≤ len(buf))
	seq  int64 // total events ever recorded

	// Arm context (set once before the run).
	path   string
	info   PostmortemInfo
	reg    *Registry
	spans  *Spans
	status *Status
}

// DefaultRecorderEvents is the ring capacity used when callers do not
// choose one.
const DefaultRecorderEvents = 4096

// NewRecorder returns a recorder holding the last n events
// (DefaultRecorderEvents if n <= 0). The ring is allocated eagerly.
func NewRecorder(n int) *Recorder {
	if n <= 0 {
		n = DefaultRecorderEvents
	}
	return &Recorder{buf: make([]RecorderEvent, n)}
}

// Arm attaches dump context: the postmortem destination path, run
// identity, and the metric/span/status sources snapshotted at dump
// time. Until Arm is called Dump is a no-op, so a recorder can be
// wired through the pipeline before the run is fully configured.
func (r *Recorder) Arm(path string, info PostmortemInfo, reg *Registry, spans *Spans, status *Status) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.path = path
	r.info = info
	r.reg = reg
	r.spans = spans
	r.status = status
	r.mu.Unlock()
}

// Record appends ev to the ring, stamping Seq and UnixNs, evicting
// the oldest entry once full. Nil-safe; allocation-free.
func (r *Recorder) Record(ev RecorderEvent) {
	if r == nil {
		return
	}
	now := time.Now().UnixNano()
	r.mu.Lock()
	r.seq++
	ev.Seq = r.seq
	ev.UnixNs = now
	r.buf[r.next] = ev
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
	}
	if r.n < len(r.buf) {
		r.n++
	}
	r.mu.Unlock()
}

// Events returns the recorded events oldest-first. Nil-safe.
func (r *Recorder) Events() []RecorderEvent {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.eventsLocked()
}

func (r *Recorder) eventsLocked() []RecorderEvent {
	out := make([]RecorderEvent, 0, r.n)
	if r.n == len(r.buf) {
		out = append(out, r.buf[r.next:]...)
		out = append(out, r.buf[:r.next]...)
	} else {
		out = append(out, r.buf[:r.n]...)
	}
	return out
}

// Len reports how many events the ring currently holds. Nil-safe.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Seq reports the total number of events ever recorded. Nil-safe.
func (r *Recorder) Seq() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}
