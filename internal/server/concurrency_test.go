package server_test

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"irgrid/internal/faultinject"
	"irgrid/internal/server"
	"irgrid/internal/server/harness"
)

// tinyRequest is the smallest real job — a handful of moves on apte —
// for tests that need many jobs to finish quickly.
func tinyRequest(seed int64) *server.JobRequest {
	return &server.JobRequest{
		Benchmark: "apte",
		Options: server.RunOptions{
			Alpha: 0.5, Beta: 0.5,
			Seed:         seed,
			MovesPerTemp: 4,
			MaxTemps:     2,
		},
	}
}

// TestConcurrentClientsFIFOFairness hammers a single-worker queue
// from several concurrent clients and verifies the service never
// reorders work: jobs start and finish in exactly the order their
// submissions were accepted (job IDs are allocated in accept order).
func TestConcurrentClientsFIFOFairness(t *testing.T) {
	const clients, jobsPerClient = 3, 3
	ts := harness.StartTestServer(t, func(c *server.Config) {
		c.Workers = 1
		c.QueueDepth = clients * jobsPerClient
	})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	var (
		mu  sync.Mutex
		ids []string
	)
	var wg sync.WaitGroup
	errs := make(chan error, clients*jobsPerClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := harness.NewClient(ts.HTTP.URL)
			cl.ClientID = fmt.Sprintf("client-%d", c)
			for j := 0; j < jobsPerClient; j++ {
				st, err := cl.Submit(ctx, tinyRequest(int64(100*c+j)))
				if err != nil {
					errs <- fmt.Errorf("client %d job %d: %w", c, j, err)
					return
				}
				mu.Lock()
				ids = append(ids, st.ID)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if len(ids) != clients*jobsPerClient {
		t.Fatalf("accepted %d jobs, want %d", len(ids), clients*jobsPerClient)
	}

	finals := make(map[string]*server.JobStatus, len(ids))
	for _, id := range ids {
		st, err := ts.WaitTerminal(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != server.StateDone {
			t.Fatalf("job %s finished %q (%s), want done", id, st.State, st.Error)
		}
		finals[id] = st
	}

	// FIFO: sorted by ID (accept order), start times must be
	// non-decreasing and every job must start only after the previous
	// one finished (single worker).
	sort.Strings(ids)
	for i := 1; i < len(ids); i++ {
		prev, cur := finals[ids[i-1]], finals[ids[i]]
		if cur.StartedUnixNs < prev.StartedUnixNs {
			t.Errorf("job %s started before earlier-accepted %s", ids[i], ids[i-1])
		}
		if cur.StartedUnixNs < prev.FinishedUnixNs {
			t.Errorf("job %s overlapped %s on a 1-worker queue", ids[i], ids[i-1])
		}
	}
}

// TestQueueFullBackpressure pins the bounded-queue contract under
// concurrent submitters: with the worker pinned on a long job and the
// queue full, every further submission gets 429 queue_full with a
// Retry-After, and nothing panics or deadlocks.
func TestQueueFullBackpressure(t *testing.T) {
	ts := harness.StartTestServer(t, func(c *server.Config) {
		c.Workers = 1
		c.QueueDepth = 2
	})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	blocker, err := ts.Submit(ctx, longRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ts.WaitStatus(ctx, blocker.ID, func(st *server.JobStatus) bool {
		return st.State == server.StateRunning
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := ts.Submit(ctx, longRequest(int64(10+i))); err != nil {
			t.Fatalf("filling queue slot %d: %v", i, err)
		}
	}

	const overflow = 8
	var wg sync.WaitGroup
	rejects := make(chan error, overflow)
	for i := 0; i < overflow; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := ts.Submit(ctx, longRequest(int64(100+i)))
			rejects <- err
		}(i)
	}
	wg.Wait()
	close(rejects)
	for err := range rejects {
		var apiErr *server.Error
		if !errors.As(err, &apiErr) || apiErr.Status != 429 || apiErr.Code != server.CodeQueueFull {
			t.Fatalf("overflow submit = %v, want 429 %s", err, server.CodeQueueFull)
		}
	}
}

// TestRateLimitPerClient pins the token bucket: one client burns its
// burst and gets 429 rate_limited; a different X-Client-ID is an
// independent bucket and sails through.
func TestRateLimitPerClient(t *testing.T) {
	ts := harness.StartTestServer(t, func(c *server.Config) {
		c.RateLimit = 0.001 // effectively no refill within the test
		c.RateBurst = 2
		c.QueueDepth = 16
	})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	a := harness.NewClient(ts.HTTP.URL)
	a.ClientID = "client-a"
	for i := 0; i < 2; i++ {
		if _, err := a.Submit(ctx, tinyRequest(int64(i))); err != nil {
			t.Fatalf("client-a submit %d within burst: %v", i, err)
		}
	}
	_, err := a.Submit(ctx, tinyRequest(99))
	var apiErr *server.Error
	if !errors.As(err, &apiErr) || apiErr.Status != 429 || apiErr.Code != server.CodeRateLimited {
		t.Fatalf("client-a over-burst submit = %v, want 429 %s", err, server.CodeRateLimited)
	}
	if apiErr.RetryAfterSeconds <= 0 {
		t.Errorf("429 carried RetryAfterSeconds=%d, want the Retry-After header surfaced typed",
			apiErr.RetryAfterSeconds)
	}

	b := harness.NewClient(ts.HTTP.URL)
	b.ClientID = "client-b"
	if _, err := b.Submit(ctx, tinyRequest(7)); err != nil {
		t.Fatalf("client-b (fresh bucket) submit: %v", err)
	}

	// The retry loop's budget is context-bounded: with a bucket that
	// will not refill for ~1000s, a short context cuts the waits off
	// with ctx.Err(), not an unbounded sleep.
	a.Retry = &harness.RetryPolicy{MaxAttempts: 10}
	sctx, scancel := context.WithTimeout(ctx, 300*time.Millisecond)
	defer scancel()
	if _, err := a.Submit(sctx, tinyRequest(100)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("retry under expired context = %v, want context.DeadlineExceeded", err)
	}
}

// TestClientRetryHonorsRetryAfter pins the harness client's real retry
// loop: against a one-token bucket with fast refill, a burst of
// submissions from a single client all get accepted — the client waits
// out each 429's Retry-After (with jittered backoff) instead of
// surfacing it — and every job still runs to done.
func TestClientRetryHonorsRetryAfter(t *testing.T) {
	ts := harness.StartTestServer(t, func(c *server.Config) {
		c.RateLimit = 20 // refills fast; Retry-After is 1s (ceiling)
		c.RateBurst = 1
		c.QueueDepth = 16
	})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	cl := harness.NewClient(ts.HTTP.URL)
	cl.ClientID = "bursty"
	cl.Retry = &harness.RetryPolicy{MaxAttempts: 10}
	var ids []string
	for i := 0; i < 4; i++ {
		st, err := cl.Submit(ctx, tinyRequest(int64(i)))
		if err != nil {
			t.Fatalf("submit %d with retry policy: %v", i, err)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		st, err := cl.WaitTerminal(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != server.StateDone {
			t.Fatalf("job %s finished %q (%s), want done", id, st.State, st.Error)
		}
	}
}

// TestShutdownLeaksNoGoroutines boots full servers, runs jobs through
// them, shuts down, and verifies the goroutine count settles back —
// workers, HTTP handlers and event followers all exit.
func TestShutdownLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()

	for cycle := 0; cycle < 3; cycle++ {
		func() {
			ts := harness.StartTestServer(t, func(c *server.Config) {
				c.Workers = 2
			})
			defer ts.HTTP.Close()
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()

			st, err := ts.Submit(ctx, tinyRequest(int64(cycle)))
			if err != nil {
				t.Fatal(err)
			}
			// A follower tails the events stream while we shut down.
			done := make(chan struct{})
			go func() {
				defer close(done)
				ts.Events(ctx, st.ID, true)
			}()
			if _, err := ts.WaitTerminal(ctx, st.ID); err != nil {
				t.Fatal(err)
			}
			<-done
			sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer scancel()
			if err := ts.Server.Shutdown(sctx); err != nil {
				t.Fatalf("cycle %d shutdown: %v", cycle, err)
			}
		}()
	}

	// Give runtime-managed goroutines (timers, finished handlers) a
	// moment to unwind, mirroring internal/obs's leak check.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+3 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Errorf("goroutines: before=%d after=%d (leak)", before, runtime.NumGoroutine())
}

// holdFirstRecordWrite arms an fs.write hook that stalls the first
// write of job id's job.json until the returned release func is
// called; entered is closed once that write is stalled. Later writes
// of the record pass through. Cleanup releases the write and disarms
// the hook.
func holdFirstRecordWrite(t *testing.T, stateDir, id string) (entered <-chan struct{}, release func()) {
	t.Helper()
	record := filepath.Join(stateDir, "jobs", id, "job.json")
	in := make(chan struct{})
	gate := make(chan struct{})
	var calls atomic.Int64
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	faultinject.SetPath(func(p faultinject.Point, path string, _ int) error {
		if p == faultinject.FSWrite && path == record && calls.Add(1) == 1 {
			close(in)
			<-gate
		}
		return nil
	})
	t.Cleanup(func() {
		release()
		faultinject.Reset()
	})
	return in, release
}

// waitClosed fails the test if ch is not closed before ctx expires.
func waitClosed(ctx context.Context, t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-ctx.Done():
		t.Fatalf("timed out waiting for %s", what)
	}
}

// TestFIFOHoldsWhileHeadRecordIsWritten forces the interleaving that
// used to reorder the queue: job 1's record write is stalled until job
// 2 has been accepted (and its own record written). Job 1 was accepted
// first, so it must hold queue position 1 and start first on the
// single worker.
func TestFIFOHoldsWhileHeadRecordIsWritten(t *testing.T) {
	ts := harness.StartTestServer(t, func(c *server.Config) { c.Workers = 1 })
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	entered, release := holdFirstRecordWrite(t, ts.StateDir, "j00000001")

	type submitted struct {
		st  *server.JobStatus
		err error
	}
	first := make(chan submitted, 1)
	go func() {
		st, err := ts.Submit(ctx, tinyRequest(1))
		first <- submitted{st, err}
	}()
	waitClosed(ctx, t, entered, "job 1's record write")

	second, err := ts.Submit(ctx, tinyRequest(2))
	if err != nil {
		t.Fatal(err)
	}
	if second.ID != "j00000002" || second.QueuePosition != 2 {
		t.Errorf("job 2 accepted as %s at position %d, want j00000002 at 2", second.ID, second.QueuePosition)
	}
	release()
	r := <-first
	if r.err != nil {
		t.Fatal(r.err)
	}

	a, err := ts.WaitTerminal(ctx, r.st.ID)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ts.WaitTerminal(ctx, second.ID)
	if err != nil {
		t.Fatal(err)
	}
	if a.State != server.StateDone || b.State != server.StateDone {
		t.Fatalf("states %q, %q; want done, done", a.State, b.State)
	}
	if b.StartedUnixNs < a.FinishedUnixNs {
		t.Errorf("job %s started before earlier-accepted %s finished", b.ID, a.ID)
	}
}
