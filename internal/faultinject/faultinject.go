// Package faultinject is a deterministic fault-injection harness for
// the fault-tolerance tests: a registered matrix of hook points
// compiled into the pipeline's recovery paths (checkpoint writes,
// every filesystem primitive of the durable store, job scheduling) that a test can arm with a deterministic failure policy.
//
// The package's contract mirrors internal/obs: zero overhead when
// disarmed. Every injection point is guarded by a single atomic load
// (the Fire variants return immediately while no hook is set), so
// production code can call them unconditionally on paths that must
// stay fast. Hooks are process-global — tests that arm them must not
// run in parallel with each other — and Set*(nil) disarms.
//
// Every Point is declared in the registry below with a one-line
// contract. Points() enumerates the registry so the chaos matrix can
// iterate every declared fault site; the server's
// TestFaultMatrixCoversAllRegisteredPoints fails when a newly
// registered point is not exercised, so new fault sites cannot ship
// untested.
package faultinject

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Point identifies an injection site.
type Point string

const (
	// CheckpointWrite fires before a checkpoint file write in
	// internal/ckpt; detail is unused. A hook that returns an error
	// simulates a checkpoint I/O failure.
	CheckpointWrite Point = "checkpoint.write"

	// FSCreate fires before the temp-file create of every atomic
	// envelope write (ckpt.SaveAs); path is the destination file. An
	// error simulates open/create failure (ENOSPC, EMFILE, EROFS).
	FSCreate Point = "fs.create"
	// FSWrite fires before the payload write of every atomic envelope
	// write; path is the destination file. An error simulates a failed
	// write (ENOSPC mid-stream).
	FSWrite Point = "fs.write"
	// FSSync fires before the fsync of every atomic envelope write;
	// path is the destination file. An error simulates a sync failure
	// (EIO — the classic lost-write on a dying disk).
	FSSync Point = "fs.sync"
	// FSRename fires before the atomic rename that publishes an
	// envelope; path is the destination file. An error simulates the
	// publish step failing after a fully written temp file.
	FSRename Point = "fs.rename"
	// FSTornWrite fires before the payload write of an atomic envelope
	// write; path is the destination file. When the hook returns an
	// error, half of the envelope bytes are written IN PLACE over the
	// destination — the on-disk state a crash mid-write leaves on a
	// filesystem without atomic rename — and the write fails with the
	// hook's error. Readers must treat the file as corrupt.
	FSTornWrite Point = "fs.torn-write"
	// FSRead fires before every envelope read (ckpt.LoadAs); path is
	// the file being read. An error simulates a read failure.
	FSRead Point = "fs.read"
	// FSCorruptRead fires through the read hook (SetRead) after every
	// envelope read with the bytes just read; the hook may return
	// mutated bytes to simulate bit rot or a torn sector under a
	// checksum. Readers must detect the damage and fail typed.
	FSCorruptRead Point = "fs.corrupt-read"

	// JobRun fires in the server worker as a job transitions to
	// running; path is the job ID and detail the 1-based attempt
	// number. A hook that panics simulates a poison job crashing its
	// worker; an error simulates an immediate run failure.
	JobRun Point = "job.run"
)

// registry maps every declared point to its one-line contract. A
// Point used with Fire/FirePath/FireRead but absent here is a
// programming error the faultinject tests catch.
var registry = map[Point]string{
	CheckpointWrite: "checkpoint write in internal/ckpt (error = I/O failure)",
	FSCreate:        "atomic-envelope temp-file create (error = open failure)",
	FSWrite:         "atomic-envelope payload write (error = write failure)",
	FSSync:          "atomic-envelope fsync (error = sync failure)",
	FSRename:        "atomic-envelope publish rename (error = rename failure)",
	FSTornWrite:     "atomic-envelope write (error = torn in-place write left behind)",
	FSRead:          "envelope read (error = read failure)",
	FSCorruptRead:   "envelope bytes post-read (read hook may corrupt them)",
	JobRun:          "server job run start (panic = poison job, error = run failure)",
}

// Points returns every registered injection point, sorted. The chaos
// matrix iterates this list so a new point is automatically part of
// the battery (or fails it, if never exercised).
func Points() []Point {
	out := make([]Point, 0, len(registry))
	for p := range registry {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Registered reports whether p is a declared injection point.
func Registered(p Point) bool {
	_, ok := registry[p]
	return ok
}

// Doc returns the registered one-line contract of p ("" when
// unregistered).
func Doc(p Point) string { return registry[p] }

// Hook decides what happens at an injection point: return nil to let
// the operation proceed, return an error to inject a failure on sites
// that propagate errors, or panic to simulate a crash on sites that
// recover panics. Hooks may be called concurrently from server
// workers and must be race-safe; keep any state in atomics.
type Hook func(point Point, detail int) error

// PathHook is a Hook with file/identity context: fs points pass the
// destination path, JobRun passes the job ID. The same
// proceed/error/panic contract applies.
type PathHook func(point Point, path string, detail int) error

// ReadHook observes (and may corrupt) bytes just read at
// FSCorruptRead: return the data unchanged to proceed, mutated bytes
// to simulate on-disk damage, or an error to fail the read outright.
// The hook must not retain data after returning.
type ReadHook func(point Point, path string, data []byte) ([]byte, error)

var (
	armed    atomic.Bool
	mu       sync.Mutex
	hook     Hook
	pathHook PathHook
	readHook ReadHook
)

func rearm() { armed.Store(hook != nil || pathHook != nil || readHook != nil) }

// Set arms the harness with h; Set(nil) disarms it. Tests should
// defer Set(nil).
func Set(h Hook) {
	mu.Lock()
	hook = h
	rearm()
	mu.Unlock()
}

// SetPath arms the path-aware hook serving the fs.* and job.* points;
// SetPath(nil) disarms it. Tests should defer SetPath(nil).
func SetPath(h PathHook) {
	mu.Lock()
	pathHook = h
	rearm()
	mu.Unlock()
}

// SetRead arms the read hook serving FSCorruptRead; SetRead(nil)
// disarms it. Tests should defer SetRead(nil).
func SetRead(h ReadHook) {
	mu.Lock()
	readHook = h
	rearm()
	mu.Unlock()
}

// Reset disarms every hook — the single defer for tests that arm more
// than one kind.
func Reset() {
	mu.Lock()
	hook, pathHook, readHook = nil, nil, nil
	rearm()
	mu.Unlock()
}

// Fire triggers the injection point. While the harness is disarmed it
// is one atomic load and a not-taken branch.
func Fire(point Point, detail int) error {
	if !armed.Load() {
		return nil
	}
	mu.Lock()
	h := hook
	mu.Unlock()
	if h == nil {
		return nil
	}
	return h(point, detail)
}

// FirePath triggers a path-aware injection point. Disarmed cost is
// identical to Fire's: one atomic load.
func FirePath(point Point, path string, detail int) error {
	if !armed.Load() {
		return nil
	}
	mu.Lock()
	h := pathHook
	mu.Unlock()
	if h == nil {
		return nil
	}
	return h(point, path, detail)
}

// FireRead passes freshly read bytes through the read hook, returning
// the (possibly corrupted) bytes to use. Disarmed it returns data
// untouched after one atomic load.
func FireRead(point Point, path string, data []byte) ([]byte, error) {
	if !armed.Load() {
		return data, nil
	}
	mu.Lock()
	h := readHook
	mu.Unlock()
	if h == nil {
		return data, nil
	}
	return h(point, path, data)
}
