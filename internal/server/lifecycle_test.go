package server_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"irgrid/floorplan"
	"irgrid/internal/server"
	"irgrid/internal/server/harness"
	"irgrid/telemetry"
)

// longRequest is a job that effectively never finishes on its own —
// the subject of cancel/drain tests.
func longRequest(seed int64) *server.JobRequest {
	return &server.JobRequest{
		Benchmark: "ami49",
		Options: server.RunOptions{
			Alpha: 0.4, Beta: 0.2, Gamma: 0.4,
			Model: floorplan.ModelIRGrid, Pitch: 100,
			Seed:         seed,
			MovesPerTemp: 60,
			MaxTemps:     1000000,
		},
	}
}

// TestCancelQueuedJobFreesQueueSlot pins DELETE semantics on the
// bounded queue: with one worker and a single queue slot occupied,
// submissions 429; canceling the queued job frees the slot
// synchronously and the next submission is accepted.
func TestCancelQueuedJobFreesQueueSlot(t *testing.T) {
	ts := harness.StartTestServer(t, func(c *server.Config) {
		c.Workers = 1
		c.QueueDepth = 1
	})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	running, err := ts.Submit(ctx, longRequest(1))
	if err != nil {
		t.Fatalf("submit running job: %v", err)
	}
	if _, err := ts.WaitStatus(ctx, running.ID, func(st *server.JobStatus) bool {
		return st.State == server.StateRunning
	}); err != nil {
		t.Fatalf("first job never started: %v", err)
	}

	queued, err := ts.Submit(ctx, longRequest(2))
	if err != nil {
		t.Fatalf("submit queued job: %v", err)
	}
	if queued.State != server.StateQueued || queued.QueuePosition != 1 {
		t.Fatalf("second job state %q pos %d, want queued at position 1", queued.State, queued.QueuePosition)
	}

	// Queue full: the third submission must bounce with 429.
	_, err = ts.Submit(ctx, longRequest(3))
	var apiErr *server.Error
	if !errors.As(err, &apiErr) || apiErr.Status != 429 || apiErr.Code != server.CodeQueueFull {
		t.Fatalf("overflow submit error = %v, want 429 %s", err, server.CodeQueueFull)
	}

	// DELETE the queued job: slot freed, job terminal-canceled, and
	// its result endpoint reports the cancellation.
	canceled, err := ts.Cancel(ctx, queued.ID)
	if err != nil {
		t.Fatalf("cancel queued job: %v", err)
	}
	if canceled.State != server.StateCanceled || canceled.Outcome != telemetry.OutcomeCanceled {
		t.Fatalf("canceled job state %q outcome %q", canceled.State, canceled.Outcome)
	}
	if _, err := ts.Result(ctx, queued.ID); !errors.As(err, &apiErr) || apiErr.Code != server.CodeJobCanceled {
		t.Fatalf("result of canceled job = %v, want %s", err, server.CodeJobCanceled)
	}

	replacement, err := ts.Submit(ctx, longRequest(4))
	if err != nil {
		t.Fatalf("submit after cancel should be accepted, got %v", err)
	}

	// Cancel the running job too: cooperative, so poll to terminal.
	if _, err := ts.Cancel(ctx, running.ID); err != nil {
		t.Fatalf("cancel running job: %v", err)
	}
	final, err := ts.WaitTerminal(ctx, running.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != server.StateCanceled {
		t.Fatalf("running job final state %q, want canceled", final.State)
	}
	// A second DELETE of a terminal job is refused.
	if _, err := ts.Cancel(ctx, running.ID); !errors.As(err, &apiErr) || apiErr.Code != server.CodeNotCancelable {
		t.Fatalf("re-cancel error = %v, want %s", err, server.CodeNotCancelable)
	}
	// Drain the replacement so teardown is quick.
	if _, err := ts.Cancel(ctx, replacement.ID); err != nil {
		t.Fatalf("cancel replacement: %v", err)
	}
	if _, err := ts.WaitTerminal(ctx, replacement.ID); err != nil {
		t.Fatal(err)
	}
}

// TestShutdownDrainsCheckpointsAndResumes is the graceful-drain
// contract end to end, in process: Shutdown stops a running job at
// its next move, the job is persisted back to the queue with a
// resumable checkpoint on disk, and a restarted server over the same
// state directory resumes it to a result bit-identical to a direct
// uninterrupted floorplan.Run.
func TestShutdownDrainsCheckpointsAndResumes(t *testing.T) {
	if testing.Short() {
		t.Skip("anneals ami33 end to end twice")
	}
	req := &server.JobRequest{
		Benchmark: "ami33",
		Options: server.RunOptions{
			Alpha: 0.4, Beta: 0.2, Gamma: 0.4,
			Model: floorplan.ModelIRGrid, Pitch: 30,
			Seed:         5,
			MovesPerTemp: 30,
			MaxTemps:     60,
		},
	}
	ts := harness.StartTestServer(t) // CheckpointEvery: 1

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	st, err := ts.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	// Let the job run to at least its second periodic checkpoint, so
	// the drain interrupts genuine mid-anneal progress.
	if _, err := ts.WaitStatus(ctx, st.ID, func(s *server.JobStatus) bool {
		return s.CheckpointStep >= 2
	}); err != nil {
		t.Fatalf("job never checkpointed: %v", err)
	}

	ts2 := ts.Restart(t)

	// After the drain, the persisted job record must be queued again
	// and its checkpoint on disk.
	ckptPath := filepath.Join(ts2.StateDir, "jobs", st.ID, "run.ckpt")
	if _, err := os.Stat(ckptPath); err != nil {
		t.Fatalf("drained job has no checkpoint: %v", err)
	}
	snap, err := floorplan.LoadCheckpoint(ckptPath)
	if err != nil {
		t.Fatalf("drained checkpoint does not verify: %v", err)
	}
	if snap.Step < 1 {
		t.Errorf("drained checkpoint at step %d, want >= 1", snap.Step)
	}

	final, err := ts2.WaitTerminal(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != server.StateDone || final.Outcome != telemetry.OutcomeCompleted {
		t.Fatalf("resumed job state %q outcome %q error %q", final.State, final.Outcome, final.Error)
	}
	if final.Resumes < 1 {
		t.Errorf("resumed job reports %d resumes, want >= 1", final.Resumes)
	}

	got, err := ts2.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	c, err := floorplan.Benchmark("ami33")
	if err != nil {
		t.Fatal(err)
	}
	want, err := floorplan.Run(c, floorplan.Options{
		Alpha: 0.4, Beta: 0.2, Gamma: 0.4,
		Congestion:   floorplan.Congestion{Model: floorplan.ModelIRGrid, Pitch: 30},
		Seed:         5,
		MovesPerTemp: 30,
		MaxTemps:     60,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertResultMatchesDirect(t, got, want)
}

// TestTimeboxedJobReportsBestSoFar pins the per-job timeout: a job
// whose timebox expires completes with outcome "deadline" and a
// valid best-so-far result document.
func TestTimeboxedJobReportsBestSoFar(t *testing.T) {
	ts := harness.StartTestServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	req := longRequest(9)
	req.Options.TimeoutSeconds = 0.5
	st, err := ts.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	final, err := ts.WaitTerminal(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != server.StateDone || final.Outcome != telemetry.OutcomeDeadline {
		t.Fatalf("timeboxed job state %q outcome %q, want done/deadline", final.State, final.Outcome)
	}
	res, err := ts.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != telemetry.OutcomeDeadline || res.Area <= 0 || len(res.Modules) == 0 {
		t.Errorf("timeboxed result outcome %q area %g modules %d; want a valid partial result",
			res.Outcome, res.Area, len(res.Modules))
	}
}

// TestCancelDuringRecordWriteStaysCanceled cancels a job while its
// first record write is stalled, so the cancel's terminal record lands
// before the stalled queued one. Submit must write the terminal record
// again last: a restarted server finds the job canceled, not queued
// for a run nobody wants.
func TestCancelDuringRecordWriteStaysCanceled(t *testing.T) {
	ts := harness.StartTestServer(t, func(c *server.Config) { c.Workers = 1 })
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	entered, release := holdFirstRecordWrite(t, ts.StateDir, "j00000001")

	first := make(chan error, 1)
	go func() {
		_, err := ts.Submit(ctx, tinyRequest(1))
		first <- err
	}()
	waitClosed(ctx, t, entered, "job 1's record write")
	st, err := ts.Cancel(ctx, "j00000001")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != server.StateCanceled {
		t.Fatalf("canceled state %q", st.State)
	}
	release()
	if err := <-first; err != nil {
		t.Fatal(err)
	}

	ts = ts.Restart(t)
	st, err = ts.Status(ctx, "j00000001")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != server.StateCanceled {
		t.Fatalf("after restart job is %q, want canceled", st.State)
	}
}
