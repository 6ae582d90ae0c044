package floorplan

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"irgrid/internal/faultinject"
	"irgrid/telemetry"
)

// sameResult asserts two results are bit-identical: cost metrics and
// every placed module rectangle.
func sameResult(t *testing.T, got, want *Result) {
	t.Helper()
	if got.Cost != want.Cost || got.Area != want.Area ||
		got.Wirelength != want.Wirelength || got.CongestionCost != want.CongestionCost {
		t.Errorf("metrics differ: cost %v/%v area %v/%v wire %v/%v cgt %v/%v",
			got.Cost, want.Cost, got.Area, want.Area,
			got.Wirelength, want.Wirelength, got.CongestionCost, want.CongestionCost)
	}
	if len(got.Modules) != len(want.Modules) {
		t.Fatalf("module count %d, want %d", len(got.Modules), len(want.Modules))
	}
	for i := range want.Modules {
		if got.Modules[i] != want.Modules[i] {
			t.Errorf("module %d: %+v, want %+v", i, got.Modules[i], want.Modules[i])
		}
	}
}

// sameCongestionMap asserts the per-grid congestion maps match bit for
// bit — the strongest form of the round-trip identity the checkpoint
// subsystem promises.
func sameCongestionMap(t *testing.T, got, want *Result, cg Congestion) {
	t.Helper()
	gm, err := got.CongestionMap(cg)
	if err != nil {
		t.Fatal(err)
	}
	wm, err := want.CongestionMap(cg)
	if err != nil {
		t.Fatal(err)
	}
	if gm.Cells != wm.Cells || gm.Score != wm.Score {
		t.Fatalf("map shape/score: %d cells %g, want %d cells %g", gm.Cells, gm.Score, wm.Cells, wm.Score)
	}
	for iy := range wm.Density {
		for ix := range wm.Density[iy] {
			if gm.Density[iy][ix] != wm.Density[iy][ix] {
				t.Fatalf("density[%d][%d] = %g, want %g", iy, ix, gm.Density[iy][ix], wm.Density[iy][ix])
			}
		}
	}
}

// TestCheckpointResumeBitIdentity is the acceptance criterion for the
// checkpoint subsystem: run k temperature steps, snapshot, resume to
// the full schedule, and land bit-identical — cost, placement and
// per-grid congestion map — to a run that was never interrupted. It
// runs on two MCNC-statistics benchmarks.
func TestCheckpointResumeBitIdentity(t *testing.T) {
	for _, name := range []string{"apte", "ami33"} {
		t.Run(name, func(t *testing.T) {
			c, err := Benchmark(name)
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{
				Alpha: 0.4, Beta: 0.2, Gamma: 0.4,
				Congestion:   Congestion{Model: ModelIRGrid, Pitch: 30},
				Seed:         1,
				MovesPerTemp: 25, MaxTemps: 16,
			}
			want, err := Run(c, opts)
			if err != nil {
				t.Fatal(err)
			}

			// Phase A: stop at step 8, snapshotting every 4 steps.
			path := filepath.Join(t.TempDir(), name+".ckpt")
			partial := opts
			partial.MaxTemps = 8
			partial.CheckpointPath = path
			partial.CheckpointEvery = 4
			if _, err := Run(c, partial); err != nil {
				t.Fatal(err)
			}
			snap, err := LoadCheckpoint(path)
			if err != nil {
				t.Fatal(err)
			}
			if snap.Step == 0 {
				t.Fatal("snapshot taken before any step")
			}

			// Phase B: resume to the full schedule.
			got, err := Resume(context.Background(), c, opts, snap)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, got, want)
			sameCongestionMap(t, got, want, opts.Congestion)
		})
	}
}

// TestCancelCheckpointResume interrupts a run mid-flight (the
// checkpoint sink cancels the context, so cancellation lands inside a
// later temperature step), then resumes from the snapshot the
// cancellation wrote and requires bit-identity with an uninterrupted
// run.
func TestCancelCheckpointResume(t *testing.T) {
	c, err := Benchmark("apte")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Alpha: 0.4, Beta: 0.2, Gamma: 0.4,
		Congestion:   Congestion{Model: ModelIRGrid, Pitch: 30},
		Seed:         7,
		MovesPerTemp: 25, MaxTemps: 14,
	}
	want, err := Run(c, opts)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	path := filepath.Join(t.TempDir(), "apte.ckpt")
	interrupted := opts
	interrupted.CheckpointPath = path
	interrupted.CheckpointEvery = 3
	var boundaries int
	interrupted.Checkpoint = func(s *Snapshot) error {
		if boundaries++; boundaries == 2 {
			cancel() // trips mid-way through the following step
		}
		return nil
	}
	res, runErr := RunContext(ctx, c, interrupted)
	if !errors.Is(runErr, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", runErr)
	}
	// The partial result is first-class: fully evaluated, congestion
	// score included.
	if res == nil || res.CongestionCost <= 0 || len(res.Modules) != len(c.Modules) {
		t.Fatalf("partial result not fully evaluated: %+v", res)
	}

	snap, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Resume(context.Background(), c, opts, snap)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, got, want)
	sameCongestionMap(t, got, want, opts.Congestion)
}

func TestRunContextAlreadyCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunContext(ctx, demoCircuit(), demoOpts())
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if res == nil || len(res.Modules) != 4 || res.Area <= 0 {
		t.Fatalf("best-so-far result invalid: %+v", res)
	}
}

func TestRunContextDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	opts := demoOpts()
	opts.MaxTemps = 1 << 20 // would run far past the deadline
	opts.MovesPerTemp = 1000
	res, err := RunContext(ctx, demoCircuit(), opts)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if res == nil || res.Area <= 0 || res.CongestionCost <= 0 {
		t.Fatalf("deadline result not fully evaluated: %+v", res)
	}
}

// TestCancelNoGoroutineLeak cancels runs mid-anneal and checks the
// process goroutine count settles back.
func TestCancelNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		opts := demoOpts()
		opts.MaxTemps = 1 << 20
		opts.MovesPerTemp = 1000
		if _, err := RunContext(ctx, demoCircuit(), opts); !errors.Is(err, ErrDeadline) && !errors.Is(err, ErrCanceled) {
			t.Fatalf("err = %v", err)
		}
		cancel()
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after canceled runs", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

func TestInvalidOptions(t *testing.T) {
	c := demoCircuit()
	cases := []struct {
		name string
		mod  func(*Options)
	}{
		{"nan-alpha", func(o *Options) { o.Alpha = math.NaN() }},
		{"inf-beta", func(o *Options) { o.Beta = math.Inf(1) }},
		{"negative-gamma", func(o *Options) { o.Gamma = -0.1 }},
		{"nan-pin-pitch", func(o *Options) { o.PinPitch = math.NaN() }},
		{"negative-congestion-pitch", func(o *Options) { o.Congestion.Pitch = -30 }},
		{"negative-moves", func(o *Options) { o.MovesPerTemp = -1 }},
		{"negative-temps", func(o *Options) { o.MaxTemps = -1 }},
		{"negative-checkpoint-every", func(o *Options) { o.CheckpointEvery = -1 }},
		{"unknown-model", func(o *Options) { o.Congestion.Model = "psychic" }},
		{"gamma-without-model", func(o *Options) { o.Congestion = Congestion{} }},
		{"unknown-wire-model", func(o *Options) { o.WirelengthModel = "laser" }},
		{"unknown-representation", func(o *Options) { o.Representation = "btree" }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := demoOpts()
			tc.mod(&opts)
			if _, err := Run(c, opts); !errors.Is(err, ErrInvalidInput) {
				t.Errorf("err = %v, want ErrInvalidInput", err)
			}
		})
	}

	t.Run("empty-circuit", func(t *testing.T) {
		if _, err := Run(&Circuit{Name: "void"}, demoOpts()); !errors.Is(err, ErrInvalidInput) {
			t.Errorf("err = %v, want ErrInvalidInput", err)
		}
	})
	t.Run("unknown-net-module", func(t *testing.T) {
		bad := demoCircuit()
		bad.Nets[0].Pins[0].Module = "ghost"
		if _, err := Run(bad, demoOpts()); !errors.Is(err, ErrInvalidInput) {
			t.Errorf("err = %v, want ErrInvalidInput", err)
		}
	})
}

func TestResumeValidation(t *testing.T) {
	c := demoCircuit()
	opts := demoOpts()
	path := filepath.Join(t.TempDir(), "demo.ckpt")
	withCkpt := opts
	withCkpt.CheckpointPath = path
	withCkpt.CheckpointEvery = 5
	if _, err := Run(c, withCkpt); err != nil {
		t.Fatal(err)
	}
	snap, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("nil-snapshot", func(t *testing.T) {
		if _, err := Resume(context.Background(), c, opts, nil); !errors.Is(err, ErrInvalidInput) {
			t.Errorf("err = %v, want ErrInvalidInput", err)
		}
	})
	t.Run("different-circuit", func(t *testing.T) {
		other, err := Benchmark("apte")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Resume(context.Background(), other, opts, snap); !errors.Is(err, ErrSnapshotMismatch) {
			t.Errorf("err = %v, want ErrSnapshotMismatch", err)
		}
	})
	t.Run("different-weights", func(t *testing.T) {
		changed := opts
		changed.Alpha = 0.9
		if _, err := Resume(context.Background(), c, changed, snap); !errors.Is(err, ErrSnapshotMismatch) {
			t.Errorf("err = %v, want ErrSnapshotMismatch", err)
		}
	})
	t.Run("different-seed", func(t *testing.T) {
		changed := opts
		changed.Seed = 999
		if _, err := Resume(context.Background(), c, changed, snap); !errors.Is(err, ErrSnapshotMismatch) {
			t.Errorf("err = %v, want ErrSnapshotMismatch", err)
		}
	})
	t.Run("extend-max-temps-allowed", func(t *testing.T) {
		extended := opts
		extended.MaxTemps = opts.MaxTemps + 10
		if _, err := Resume(context.Background(), c, extended, snap); err != nil {
			t.Errorf("extending MaxTemps should be allowed: %v", err)
		}
	})
	t.Run("corrupt-file", func(t *testing.T) {
		bad := filepath.Join(t.TempDir(), "bad.ckpt")
		if err := os.WriteFile(bad, []byte("not a checkpoint"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCheckpoint(bad); err == nil {
			t.Error("LoadCheckpoint accepted garbage")
		}
	})
}

func TestRunBestContextRejectsCheckpointing(t *testing.T) {
	opts := demoOpts()
	opts.CheckpointPath = filepath.Join(t.TempDir(), "x.ckpt")
	if _, err := RunBestContext(context.Background(), demoCircuit(), opts, 2); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("err = %v, want ErrInvalidInput", err)
	}
}

func TestRunBestContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunBestContext(ctx, demoCircuit(), demoOpts(), 3)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if res == nil || res.Best == nil || res.Best.Area <= 0 {
		t.Fatalf("best-so-far result invalid: %+v", res)
	}
}

// TestCheckpointWriteFaultRunContinues injects checkpoint I/O failures
// and requires the run to finish normally, counting the failures in
// telemetry instead of aborting.
func TestCheckpointWriteFaultRunContinues(t *testing.T) {
	faultinject.Set(func(p faultinject.Point, _ int) error {
		if p == faultinject.CheckpointWrite {
			return errors.New("injected disk failure")
		}
		return nil
	})
	defer faultinject.Set(nil)

	path := filepath.Join(t.TempDir(), "never-written.ckpt")
	opts := demoOpts()
	opts.CheckpointPath = path
	opts.CheckpointEvery = 2
	opts.Obs = telemetry.NewRegistry()
	res, err := Run(demoCircuit(), opts)
	faultinject.Set(nil)
	if err != nil {
		t.Fatalf("checkpoint I/O failure aborted the run: %v", err)
	}
	if res == nil || res.Area <= 0 {
		t.Fatalf("result invalid: %+v", res)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("checkpoint file exists despite injected write failures")
	}
	snap := opts.Obs.Snapshot()
	if snap["checkpoint_errors"] == 0 {
		t.Error("checkpoint_errors counter not incremented")
	}
	if snap["checkpoints_written"] != 0 {
		t.Errorf("checkpoints_written = %g with an always-failing writer", snap["checkpoints_written"])
	}
}

// TestCheckpointCounters verifies the success-path counters.
func TestCheckpointCounters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "demo.ckpt")
	opts := demoOpts()
	opts.CheckpointPath = path
	opts.CheckpointEvery = 5
	opts.Obs = telemetry.NewRegistry()
	if _, err := Run(demoCircuit(), opts); err != nil {
		t.Fatal(err)
	}
	snap := opts.Obs.Snapshot()
	if snap["checkpoints_written"] == 0 {
		t.Error("checkpoints_written not incremented")
	}
	if snap["checkpoint_errors"] != 0 {
		t.Errorf("checkpoint_errors = %g on the success path", snap["checkpoint_errors"])
	}
	if _, err := LoadCheckpoint(path); err != nil {
		t.Errorf("written checkpoint does not load: %v", err)
	}
}

// TestCanceledRunCounter verifies runs_canceled is incremented on
// interruption.
func TestCanceledRunCounter(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := demoOpts()
	opts.Obs = telemetry.NewRegistry()
	if _, err := RunContext(ctx, demoCircuit(), opts); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v", err)
	}
	if got := opts.Obs.Snapshot()["runs_canceled"]; got != 1 {
		t.Errorf("runs_canceled = %g, want 1", got)
	}
}
