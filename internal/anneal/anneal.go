// Package anneal provides the seeded simulated-annealing engine that
// drives the floorplanner. It follows the classic Wong–Liu schedule:
// the initial temperature is calibrated so that a configurable fraction
// of random uphill moves is accepted, the temperature decays
// geometrically, and a fixed number of moves is attempted per
// temperature step. A per-temperature hook exposes the intermediate
// locally-optimized solutions that the paper's Experiment 2 samples
// ("we extract the intermediate solution at each temperature-dropping
// step").
package anneal

import (
	"context"
	"math"
	"math/rand"

	"irgrid/internal/obs"
)

// State is one point of the search space. Implementations must treat
// states as immutable values: Neighbor returns a perturbed copy and
// never mutates the receiver.
type State interface {
	// Cost returns the scalar objective; lower is better.
	Cost() float64
	// Neighbor returns a random neighbouring state.
	Neighbor(rng *rand.Rand) State
}

// MoveAware is an optional extension of State for search spaces that
// keep incremental evaluation caches: after each Metropolis decision on
// a proposed state, Run calls exactly one of AcceptMove (the proposal
// became the current state) or RejectMove (it was discarded) on the
// proposal. Implementations use RejectMove to roll their caches back to
// the pre-move state. The notifications observe decisions already made
// and never touch the RNG, so runs are bit-identical with or without
// them; the calibration probes are not search moves and are never
// notified.
type MoveAware interface {
	AcceptMove()
	RejectMove()
}

// Config controls the annealing schedule.
type Config struct {
	// Seed seeds the engine's private PRNG; runs with equal seeds and
	// configs are bit-reproducible.
	Seed int64
	// InitAccept is the target acceptance probability for the average
	// uphill move used to calibrate the initial temperature
	// (default 0.95).
	InitAccept float64
	// Cooling is the geometric temperature decay per step in (0, 1)
	// (default 0.9).
	Cooling float64
	// MovesPerTemp is the number of proposed moves at each temperature
	// (default 100).
	MovesPerTemp int
	// MinAcceptRate stops the anneal when the acceptance rate at a
	// temperature falls below it (default 0.02).
	MinAcceptRate float64
	// MaxTemps caps the number of temperature steps (default 200).
	MaxTemps int
	// CalibrationMoves is the number of random perturbations used to
	// estimate the average uphill cost delta (default 50).
	CalibrationMoves int
	// OnTemperature, when non-nil, is invoked after each temperature
	// step with the step index, the temperature, the current state (the
	// locally-optimized solution at that temperature — what the paper's
	// Experiment 2 samples) and the best state found so far.
	OnTemperature func(step int, temp float64, cur, best State)
	// Obs, when non-nil, receives live run metrics: move/accept
	// counters and temperature/cost gauges. Telemetry never perturbs
	// the search — it observes values already computed and never
	// touches the RNG — so instrumented runs are bit-identical to
	// uninstrumented ones.
	Obs *obs.Registry
	// Trace, when non-nil, receives the JSONL run trace: one
	// calibration event, then one temp event per temperature step. The
	// tracer's buffer is flushed at every temperature boundary, so a
	// crash loses at most the current temperature's events.
	Trace *obs.Tracer
	// Span, when non-nil, is the parent span the annealer's stage
	// spans (calibrate, temp, checkpoint) attach under. Spans time
	// work the anneal performed anyway and never touch the RNG, so
	// span-enabled runs are bit-identical.
	Span *obs.Span
	// Recorder, when non-nil, receives one flight-recorder event per
	// move, per temperature step and per checkpoint write. Like every
	// obs surface it only observes computed values; runs stay
	// bit-identical.
	Recorder *obs.Recorder
	// Status, when non-nil, receives the live run-status feed
	// (schedule bounds, then one update per temperature step).
	Status *obs.Status
	// CheckpointEvery, when positive together with Checkpoint, invokes
	// the checkpoint sink after every CheckpointEvery completed
	// temperature steps.
	CheckpointEvery int
	// Checkpoint, when non-nil, receives boundary snapshots: every
	// CheckpointEvery steps, and once more on cancellation (the last
	// completed boundary, so a canceled-and-resumed run replays the
	// interrupted step and stays bit-identical to an uninterrupted
	// one). A sink error never aborts the run; it is counted in
	// Stats.CheckpointErrors and the checkpoint_errors counter.
	Checkpoint func(*Snapshot) error
	// Resume, when non-nil, continues a previous run from the snapshot
	// instead of starting fresh: calibration is skipped, the PRNG is
	// fast-forwarded to the snapshot's draw position, and the
	// temperature loop re-enters at Snapshot.Step. The initial state
	// passed to Run is ignored.
	Resume *Snapshot
}

func (c Config) withDefaults() Config {
	if c.InitAccept <= 0 || c.InitAccept >= 1 {
		c.InitAccept = 0.95
	}
	if c.Cooling <= 0 || c.Cooling >= 1 {
		c.Cooling = 0.9
	}
	if c.MovesPerTemp <= 0 {
		c.MovesPerTemp = 100
	}
	if c.MinAcceptRate <= 0 {
		c.MinAcceptRate = 0.02
	}
	if c.MaxTemps <= 0 {
		c.MaxTemps = 200
	}
	if c.CalibrationMoves <= 0 {
		c.CalibrationMoves = 50
	}
	return c
}

// Stats reports what the anneal did.
type Stats struct {
	Temps int // temperature steps executed
	// Moves counts search moves only (the proposals of the temperature
	// loop). The cost probes of the initial-temperature calibration are
	// reported separately in CalibrationMoves.
	Moves int
	// CalibrationMoves counts the random cost probes spent calibrating
	// the initial temperature (Config.CalibrationMoves of them): they
	// evaluate the cost function like a move does, but never alter the
	// search state.
	CalibrationMoves int
	Accepted         int // moves accepted
	// UphillAccepted counts accepted moves that increased cost (the
	// hill-climbing activity the temperature controls).
	UphillAccepted int
	// BestStep is the temperature-step index at which the returned
	// best state was last improved; -1 when no move ever beat the
	// initial state.
	BestStep  int
	InitTemp  float64 // calibrated initial temperature
	FinalTemp float64
	InitCost  float64
	FinalCost float64 // cost of the returned best state
	// Checkpoints and CheckpointErrors count successful and failed
	// invocations of the Config.Checkpoint sink.
	Checkpoints      int
	CheckpointErrors int
}

// Run anneals from the initial state and returns the best state seen.
//
// The context is checked cooperatively at every proposed move (and
// between the evaluation inside a move and its acceptance decision, so
// a cost that an estimator computed after cancellation is never acted
// on). On cancellation Run returns the best state found so far with
// ErrCanceled or ErrDeadline — partial results are first-class, not
// failures — and, when a Checkpoint sink is configured, writes one
// final boundary snapshot so the run can be resumed.
func Run(ctx context.Context, cfg Config, initial State) (State, Stats, error) {
	cfg = cfg.withDefaults()
	if ctx == nil {
		ctx = context.Background()
	}
	cfg.Status.Schedule(cfg.MaxTemps, cfg.MovesPerTemp)
	src := newCountingSource(cfg.Seed)
	rng := rand.New(src)

	// Registry instruments resolve to nil no-ops when cfg.Obs is nil.
	var (
		mMoves    = cfg.Obs.Counter("anneal_moves_total")
		mCalib    = cfg.Obs.Counter("anneal_calibration_moves_total")
		mAcc      = cfg.Obs.Counter("anneal_accepted_total")
		mTemps    = cfg.Obs.Counter("anneal_temps_total")
		gTemp     = cfg.Obs.Gauge("anneal_temperature")
		gCur      = cfg.Obs.Gauge("anneal_cost_current")
		gBest     = cfg.Obs.Gauge("anneal_cost_best")
		gRate     = cfg.Obs.Gauge("anneal_accept_rate")
		mCkpt     = cfg.Obs.Counter("checkpoints_written")
		mCkptErr  = cfg.Obs.Counter("checkpoint_errors")
		mCanceled = cfg.Obs.Counter("runs_canceled")
	)

	var (
		cur, best         State
		curCost, bestCost float64
		temp              float64
		st                Stats
		startStep         int
		boundary          *Snapshot // last completed step boundary
	)

	// writeCheckpoint hands the boundary snapshot to the sink. Sink
	// errors (a full disk, an injected I/O fault) never abort the run.
	writeCheckpoint := func() {
		if cfg.Checkpoint == nil || boundary == nil {
			return
		}
		sp := cfg.Span.Child("checkpoint")
		err := cfg.Checkpoint(boundary)
		sp.End()
		if err != nil {
			st.CheckpointErrors++
			mCkptErr.Inc()
		} else {
			st.Checkpoints++
			mCkpt.Inc()
		}
		if cfg.Recorder != nil {
			note := ""
			if err != nil {
				note = err.Error()
			}
			cfg.Recorder.Record(obs.RecorderEvent{
				Kind: obs.RecCheckpoint, Step: boundary.Step, Note: note,
			})
		}
	}
	// finish concludes an interrupted run: best-so-far plus the typed
	// cancellation error, with a final resumable boundary snapshot.
	finish := func(err error) (State, Stats, error) {
		mCanceled.Inc()
		writeCheckpoint()
		st.FinalCost = bestCost
		return best, st, err
	}

	if snap := cfg.Resume; snap != nil {
		src.fastForward(snap.Draws)
		cur, curCost = snap.Cur, snap.CurCost
		best, bestCost = snap.Best, snap.BestCost
		st = snap.Stats
		temp = snap.Temp
		startStep = snap.Step
		boundary = snap
		if err := ctxErr(ctx); err != nil {
			return finish(err)
		}
	} else {
		cur = initial
		curCost = cur.Cost()
		best, bestCost = cur, curCost
		st = Stats{InitCost: curCost, BestStep: -1}

		// Calibrate the initial temperature from the average uphill
		// delta: exp(-avgUp/T0) = InitAccept => T0 = -avgUp / ln(InitAccept).
		spCal := cfg.Span.Child("calibrate")
		var upSum float64
		var upN int
		probe := cur
		probeCost := curCost
		for i := 0; i < cfg.CalibrationMoves; i++ {
			if err := ctxErr(ctx); err != nil {
				spCal.End()
				return finish(err)
			}
			next := probe.Neighbor(rng)
			if err := ctxErr(ctx); err != nil {
				spCal.End()
				return finish(err)
			}
			nextCost := next.Cost()
			st.CalibrationMoves++
			mCalib.Inc()
			if d := nextCost - probeCost; d > 0 {
				upSum += d
				upN++
			}
			probe, probeCost = next, nextCost
		}
		spCal.End()
		avgUp := 1.0
		if upN > 0 {
			avgUp = upSum / float64(upN)
		}
		temp = -avgUp / math.Log(cfg.InitAccept)
		if temp <= 0 || math.IsNaN(temp) || math.IsInf(temp, 0) {
			temp = 1
		}
		st.InitTemp = temp
		cfg.Trace.Emit(obs.CalibrationEvent{
			Ev: obs.EvCalibration, Moves: st.CalibrationMoves,
			InitTemp: temp, InitCost: curCost,
		})
		boundary = &Snapshot{
			Step: 0, Temp: temp, Draws: src.n,
			Cur: cur, CurCost: curCost,
			Best: best, BestCost: bestCost,
			Stats: st,
		}
	}

	for step := startStep; step < cfg.MaxTemps; step++ {
		spStep := cfg.Span.Child("temp")
		accepted := 0
		for m := 0; m < cfg.MovesPerTemp; m++ {
			if err := ctxErr(ctx); err != nil {
				spStep.End()
				return finish(err)
			}
			next := cur.Neighbor(rng)
			// A cancellation can interrupt the evaluation inside
			// Neighbor (estimators bail every few dozen nets), so the
			// cost may be partial — re-check before acting on it.
			if err := ctxErr(ctx); err != nil {
				spStep.End()
				return finish(err)
			}
			nextCost := next.Cost()
			st.Moves++
			mMoves.Inc()
			d := nextCost - curCost
			// Same decision and same RNG draw order as the classic
			// one-liner (the draw happens only for uphill moves), kept
			// explicit so the flight recorder can log the outcome.
			accept := d <= 0
			if !accept {
				accept = rng.Float64() < math.Exp(-d/temp)
			}
			if accept {
				cur, curCost = next, nextCost
				accepted++
				if d > 0 {
					st.UphillAccepted++
				}
				if curCost < bestCost {
					best, bestCost = cur, curCost
					st.BestStep = step
				}
				if ma, ok := next.(MoveAware); ok {
					ma.AcceptMove()
				}
			} else if ma, ok := next.(MoveAware); ok {
				ma.RejectMove()
			}
			// Gated on the handle (not folded into a nil-safe call) so
			// disabled runs skip building the event struct entirely.
			if cfg.Recorder != nil {
				cfg.Recorder.Record(obs.RecorderEvent{
					Kind: obs.RecMove, Step: step, Temp: temp,
					Cost: curCost, Best: bestCost,
					Delta: d, Accepted: accept,
				})
			}
		}
		spStep.End()
		st.Accepted += accepted
		st.Temps = step + 1
		st.FinalTemp = temp
		rate := float64(accepted) / float64(cfg.MovesPerTemp)
		mAcc.Add(int64(accepted))
		mTemps.Inc()
		gTemp.Set(temp)
		gCur.Set(curCost)
		gBest.Set(bestCost)
		gRate.Set(rate)
		cfg.Trace.Emit(obs.TempEvent{
			Ev: obs.EvTemp, Step: step, Temp: temp,
			Cost: curCost, Best: bestCost,
			Accepted: accepted, Moves: cfg.MovesPerTemp, AcceptRate: rate,
		})
		if cfg.OnTemperature != nil {
			cfg.OnTemperature(step, temp, cur, best)
		}
		// Bound trace staleness to one temperature step: everything up
		// to and including this step's events survives a crash.
		cfg.Trace.Flush()
		cfg.Status.Step(step+1, temp, curCost, bestCost, rate, int64(st.Moves))
		if cfg.Recorder != nil {
			cfg.Recorder.Record(obs.RecorderEvent{
				Kind: obs.RecTemp, Step: step, Temp: temp,
				Cost: curCost, Best: bestCost, Accepted: accepted > 0,
			})
		}
		if rate < cfg.MinAcceptRate {
			break
		}
		temp *= cfg.Cooling
		boundary = &Snapshot{
			Step: step + 1, Temp: temp, Draws: src.n,
			Cur: cur, CurCost: curCost,
			Best: best, BestCost: bestCost,
			Stats: st,
		}
		if cfg.CheckpointEvery > 0 && (step+1)%cfg.CheckpointEvery == 0 {
			writeCheckpoint()
		}
	}
	st.FinalCost = bestCost
	return best, st, nil
}
