// Package fplan assembles the full floorplanning pipeline the paper's
// experiments run: a simulated-annealing search over normalized Polish
// expressions whose cost function is α·Area + β·Wirelength +
// γ·Congestion (§5), with pins located by the intersection-to-
// intersection method, multi-pin nets decomposed by Manhattan MST, and
// the congestion term supplied by a pluggable estimator (the
// fixed-size-grid model or the Irregular-Grid model).
package fplan

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"irgrid/internal/anneal"
	"irgrid/internal/buildinfo"
	"irgrid/internal/geom"
	"irgrid/internal/mst"
	"irgrid/internal/netlist"
	"irgrid/internal/obs"
	"irgrid/internal/pins"
	"irgrid/internal/slicing"
	"irgrid/internal/wl"
)

// Estimator scores the congestion of a floorplan from its decomposed
// 2-pin nets; both congestion models implement it.
type Estimator interface {
	// Score returns the chip-level congestion cost (the average of the
	// top-10% most congested grids/area units).
	Score(chip geom.Rect, nets []netlist.TwoPin) float64
	// Name identifies the model in reports.
	Name() string
}

// Weights are the cost-function coefficients.
type Weights struct {
	Alpha float64 // area
	Beta  float64 // wirelength
	Gamma float64 // congestion
}

// Config parameterizes a floorplanning run.
type Config struct {
	Weights
	// Estimator supplies the congestion term; it may be nil when
	// Gamma == 0.
	Estimator Estimator
	// Pitch is the base routing-grid pitch in µm used to snap pins to
	// grid intersections.
	Pitch float64
	// AllowRotate permits 90° module rotation (default used by the
	// experiments: true).
	AllowRotate bool
	// Anneal configures the SA schedule; its Seed makes runs
	// reproducible.
	Anneal anneal.Config
	// NormSamples is the number of random perturbations used to
	// normalize the cost terms (default 20).
	NormSamples int
	// Wire selects the wirelength model for the cost term (default
	// wl.ModelMST, the paper's choice). Congestion estimation always
	// uses the MST-decomposed 2-pin nets regardless.
	Wire wl.Model
	// Representation selects the floorplan encoding the annealer
	// searches: ReprSlicing (default, the paper's) or ReprSeqPair.
	Representation string
	// FullEval disables incremental congestion evaluation. By default,
	// when the estimator supports the NewMoveScorer hook (the IR-grid
	// model does), each SA move's congestion is scored by a delta engine
	// that reuses the previous move's evaluation state and rolls back on
	// rejection; the scores are bit-identical to from-scratch
	// evaluation, so FullEval changes throughput only, never results.
	FullEval bool
	// Obs, when non-nil, receives live metrics from every layer of the
	// run: fplan evaluation counters and cost-component gauges, the
	// annealer's move/temperature instruments, and — for estimators that
	// support the WithObserver hook — the evaluation engine's stage
	// timings and memo counters. Telemetry only observes values already
	// computed; instrumented runs are bit-identical to plain ones.
	Obs *obs.Registry
	// Trace, when non-nil, receives the JSONL run trace: run_start,
	// calibration, one temp + solution event pair per temperature step,
	// a spans event when Spans is also set, and run_end (carrying a
	// metrics snapshot when Obs is also set).
	Trace *obs.Tracer
	// Spans, when non-nil, collects the run's hierarchical timing tree
	// (setup, run/anneal/{calibrate,temp,checkpoint}, run/finalize,
	// plus the estimator's evaluate/move stages for estimators with
	// the WithSpans hook). Spans only time work already performed;
	// span-enabled runs are bit-identical.
	Spans *obs.Spans
	// Recorder, when non-nil, is the run's black-box flight recorder:
	// the annealer feeds it move/temp/checkpoint events, hooked
	// estimators feed it eval events, and on
	// cancellation/deadline (or any run error) Run dumps a postmortem
	// to PostmortemPath.
	Recorder *obs.Recorder
	// Status, when non-nil, receives the live run-status feed served
	// by the /debug/run endpoint.
	Status *obs.Status
	// PostmortemPath, when set together with Recorder, arms the
	// recorder: faults (cancellation, SIGQUIT handlers
	// in the CLIs) dump a postmortem JSON file there.
	PostmortemPath string
	// CheckpointEvery, together with Checkpoint, writes a resumable
	// snapshot after every CheckpointEvery completed temperature steps
	// (and once more if the run is canceled).
	CheckpointEvery int
	// Checkpoint receives boundary snapshots. A sink error never aborts
	// the run; it is counted in Stats.CheckpointErrors.
	Checkpoint func(*Snapshot) error
	// Resume, when non-nil, continues a previous run from the snapshot
	// instead of starting fresh. The snapshot's config digest must match
	// this Runner's (ErrSnapshotMismatch otherwise); MaxTemps may
	// differ, so a resumed run can extend the original schedule.
	Resume *Snapshot
}

// Solution is a fully evaluated floorplan.
type Solution struct {
	Expr       slicing.Expr
	Placement  *netlist.Placement
	Nets       []netlist.TwoPin // MST-decomposed 2-pin nets, pins snapped
	Area       float64          // chip bounding-box area, µm²
	Wirelength float64          // total Manhattan wirelength, µm
	Congestion float64          // estimator score (0 when no estimator)
	Cost       float64          // normalized weighted cost
}

// moveScorer is the incremental-evaluation contract an estimator's
// NewMoveScorer hook returns: Score commits (chip, nets) as its cached
// state and must be bit-identical to the estimator's own Score on the
// same input; Rollback restores the cache to the state before the last
// Score (one level deep).
type moveScorer interface {
	Score(chip geom.Rect, nets []netlist.TwoPin) float64
	Rollback()
}

// Runner evaluates Polish expressions for one circuit under one config
// and drives the annealer. A Runner is not safe for concurrent use.
type Runner struct {
	Circuit *netlist.Circuit
	Cfg     Config

	packer                      *slicing.Packer
	normArea, normWire, normCgt float64
	pinScratch                  []geom.Pt
	moveEst                     moveScorer   // nil → full per-move evaluation
	instr                       *runnerInstr // nil when Cfg.Obs is nil
	digest                      string       // configDigest, bound into snapshots
}

// runnerInstr holds the Runner's resolved registry instruments: the
// per-evaluation cost-component breakdown and move throughput.
type runnerInstr struct {
	evals              *obs.Counter // fplan_evals_total
	area, wire, cgt    *obs.Gauge   // raw terms of the last evaluation
	normArea, normWire *obs.Gauge   // calibration constants
	normCgt, cost      *obs.Gauge
	evalsPerSec        *obs.Gauge
	costH              *obs.Histogram
}

func newRunnerInstr(reg *obs.Registry) *runnerInstr {
	return &runnerInstr{
		evals:       reg.Counter("fplan_evals_total"),
		area:        reg.Gauge("fplan_area"),
		wire:        reg.Gauge("fplan_wirelength"),
		cgt:         reg.Gauge("fplan_congestion"),
		normArea:    reg.Gauge("fplan_norm_area"),
		normWire:    reg.Gauge("fplan_norm_wirelength"),
		normCgt:     reg.Gauge("fplan_norm_congestion"),
		cost:        reg.Gauge("fplan_cost"),
		evalsPerSec: reg.Gauge("fplan_evals_per_second"),
		costH: reg.Histogram("fplan_cost_hist",
			[]float64{0.25, 0.5, 0.75, 1, 1.5, 2, 3, 5, 10}),
	}
}

// New validates the inputs and prepares a Runner.
func New(c *netlist.Circuit, cfg Config) (*Runner, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if cfg.Pitch <= 0 {
		return nil, fmt.Errorf("fplan: pitch must be positive, got %g", cfg.Pitch)
	}
	if cfg.Gamma != 0 && cfg.Estimator == nil {
		return nil, fmt.Errorf("fplan: Gamma=%g requires an Estimator", cfg.Gamma)
	}
	// Forward the metrics registry to estimators that expose
	// engine-level instrumentation. The interface is structural so
	// fplan needs no dependency on any concrete estimator package.
	if cfg.Obs != nil && cfg.Estimator != nil {
		if p, ok := cfg.Estimator.(interface{ WithObserver(*obs.Registry) any }); ok {
			if est, ok := p.WithObserver(cfg.Obs).(Estimator); ok {
				cfg.Estimator = est
			}
		}
	}
	// And the span tracker / flight recorder, for estimators exposing
	// the deep-observability hooks (resolved before NewMoveScorer so
	// the delta engine inherits them).
	if cfg.Spans != nil && cfg.Estimator != nil {
		if p, ok := cfg.Estimator.(interface{ WithSpans(*obs.Spans) any }); ok {
			if est, ok := p.WithSpans(cfg.Spans).(Estimator); ok {
				cfg.Estimator = est
			}
		}
	}
	if cfg.Recorder != nil && cfg.Estimator != nil {
		if p, ok := cfg.Estimator.(interface{ WithRecorder(*obs.Recorder) any }); ok {
			if est, ok := p.WithRecorder(cfg.Recorder).(Estimator); ok {
				cfg.Estimator = est
			}
		}
	}
	r := &Runner{
		Circuit: c,
		Cfg:     cfg,
		packer:  slicing.NewPacker(c.Modules, cfg.AllowRotate),
	}
	// Incremental move scoring: estimators exposing the NewMoveScorer
	// hook score successive SA states by delta evaluation. Resolved
	// after the Obs/Spans/Recorder forwarding so the scorer inherits the final
	// estimator configuration. Scores are bit-identical to full
	// evaluation, so the opt-out (FullEval) trades only throughput.
	if !cfg.FullEval && cfg.Gamma != 0 && cfg.Estimator != nil {
		if h, ok := cfg.Estimator.(interface{ NewMoveScorer() any }); ok {
			if ms, ok := h.NewMoveScorer().(moveScorer); ok {
				r.moveEst = ms
			}
		}
	}
	if cfg.Obs != nil {
		r.instr = newRunnerInstr(cfg.Obs)
	}
	sp := cfg.Spans.Start("setup")
	if _, err := r.initialLayout(); err != nil {
		sp.End()
		return nil, err
	}
	r.digest = r.configDigest()
	r.calibrate()
	sp.End()
	if in := r.instr; in != nil {
		in.normArea.Set(r.normArea)
		in.normWire.Set(r.normWire)
		in.normCgt.Set(r.normCgt)
	}
	// Arm the flight recorder now that the run identity is known; an
	// armed recorder dumps a postmortem on faults from here on.
	if cfg.Recorder != nil && cfg.PostmortemPath != "" {
		cfg.Recorder.Arm(cfg.PostmortemPath, obs.PostmortemInfo{
			Version:      buildinfo.Version(),
			ConfigDigest: r.digest,
			Circuit:      c.Name,
			Model:        r.estimatorName(),
			Seed:         cfg.Anneal.Seed,
		}, cfg.Obs, cfg.Spans, cfg.Status)
	}
	return r, nil
}

// calibrate estimates normalization constants for the cost terms by
// sampling random perturbations of the initial expression, so that the
// weighted terms are commensurate regardless of circuit scale.
func (r *Runner) calibrate() {
	n := r.Cfg.NormSamples
	if n <= 0 {
		n = 20
	}
	rng := rand.New(rand.NewSource(r.Cfg.Anneal.Seed + 1))
	l, _ := r.initialLayout() // representation validated in New
	var sa, sw, sc float64
	for i := 0; i < n; i++ {
		s := r.evaluateLayout(l)
		sa += s.Area
		sw += s.Wirelength
		sc += s.Congestion
		l = l.neighbor(rng)
	}
	r.normArea = positive(sa / float64(n))
	r.normWire = positive(sw / float64(n))
	r.normCgt = positive(sc / float64(n))
}

func positive(v float64) float64 {
	if v <= 0 {
		return 1
	}
	return v
}

// evaluate packs a slicing expression and computes all cost terms.
func (r *Runner) evaluate(e slicing.Expr) *Solution {
	return r.evaluateLayout(slicingLayout{e: e, p: r.packer})
}

// evaluateLayout packs any layout and computes all cost terms.
func (r *Runner) evaluateLayout(l layout) *Solution {
	pl, err := l.pack()
	if err != nil {
		// Layouts are only produced by validated moves; a failure here
		// is a programming error.
		panic(err)
	}
	chip := pl.Chip
	snap := pins.New(chip, r.Cfg.Pitch)
	var nets []netlist.TwoPin
	var wire float64
	pts := r.pinScratch[:0]
	for _, n := range r.Circuit.Nets {
		start := len(pts)
		for _, p := range n.Pins {
			pts = append(pts, snap.SnapClamped(pl.PinPosition(p), chip))
		}
		netPins := pts[start:]
		wire += r.Cfg.Wire.Eval(netPins)
		for _, edge := range mst.Tree(netPins) {
			nets = append(nets, netlist.TwoPin{A: netPins[edge[0]], B: netPins[edge[1]]})
		}
	}
	r.pinScratch = pts[:0]
	s := &Solution{
		Expr:       l.expr(),
		Placement:  pl,
		Nets:       nets,
		Area:       chip.Area(),
		Wirelength: wire,
	}
	if r.Cfg.Gamma != 0 && r.Cfg.Estimator != nil {
		if r.moveEst != nil {
			// The delta engine commits (chip, nets) as its cached state;
			// saState.RejectMove rolls it back when the annealer discards
			// the move. Bit-identical to Estimator.Score.
			s.Congestion = r.moveEst.Score(chip, nets)
		} else {
			s.Congestion = r.Cfg.Estimator.Score(chip, nets)
		}
	}
	if in := r.instr; in != nil {
		in.evals.Inc()
		in.area.Set(s.Area)
		in.wire.Set(s.Wirelength)
		in.cgt.Set(s.Congestion)
	}
	return s
}

// Evaluate scores an arbitrary expression under this Runner's config,
// including the normalized cost.
func (r *Runner) Evaluate(e slicing.Expr) *Solution {
	s := r.evaluate(e)
	s.Cost = r.cost(s)
	return s
}

func (r *Runner) cost(s *Solution) float64 {
	c := r.Cfg.Alpha*s.Area/r.normArea + r.Cfg.Beta*s.Wirelength/r.normWire
	if r.Cfg.Gamma != 0 {
		c += r.Cfg.Gamma * s.Congestion / r.normCgt
	}
	if in := r.instr; in != nil {
		in.cost.Set(c)
		in.costH.Observe(c)
	}
	return c
}

// saState adapts (Runner, layout) to anneal.State. States are
// immutable: Neighbor perturbs a copy.
type saState struct {
	r    *Runner
	l    layout
	cost float64
}

func (s *saState) Cost() float64 { return s.cost }

func (s *saState) Neighbor(rng *rand.Rand) anneal.State {
	l := s.l.neighbor(rng)
	sol := s.r.evaluateLayout(l)
	return &saState{r: s.r, l: l, cost: s.r.cost(sol)}
}

// AcceptMove implements anneal.MoveAware: the proposal this state's
// evaluation committed into the delta scorer's cache became the current
// state, so the cache is already correct.
func (s *saState) AcceptMove() {}

// RejectMove implements anneal.MoveAware: the annealer discarded this
// proposal, so the delta scorer's cache — which Neighbor's evaluation
// committed to the proposed state — rolls back to the pre-move state.
func (s *saState) RejectMove() {
	if s.r.moveEst != nil {
		s.r.moveEst.Rollback()
	}
}

// Run anneals from the representation's canonical initial state (or
// from Cfg.Resume) and returns the best solution. When onTemp is
// non-nil it is invoked after every temperature step with the
// *current* locally-optimized solution — exactly what the paper's
// Experiment 2 extracts "at each temperature-dropping step".
//
// The context (nil means background) is checked cooperatively at every
// proposed move and — for estimators supporting the WithContext hook —
// every 64 nets of an evaluation. On cancellation Run returns the best
// solution found so far together with anneal.ErrCanceled or
// anneal.ErrDeadline, and writes one final boundary checkpoint when a
// sink is configured.
func (r *Runner) Run(ctx context.Context, onTemp func(step int, sol *Solution)) (*Solution, anneal.Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	init, err := r.initialLayout()
	if err != nil {
		panic(err) // validated in New
	}
	// Hand a cancelable context to estimators that can bail
	// mid-evaluation. The wrap is skipped for non-cancelable contexts so
	// plain runs keep their evaluation pools warm. restoreEstimator
	// swaps the plain estimator back before the final best-solution
	// resolution: a bailed-out evaluation may carry a partial score, and
	// the returned best-so-far must be fully evaluated even on cancel.
	restoreEstimator := func() {}
	if ctx.Done() != nil && r.Cfg.Estimator != nil {
		if p, ok := r.Cfg.Estimator.(interface{ WithContext(context.Context) any }); ok {
			if est, ok := p.WithContext(ctx).(Estimator); ok {
				prev := r.Cfg.Estimator
				r.Cfg.Estimator = est
				restoreEstimator = func() { r.Cfg.Estimator = prev }
				defer restoreEstimator()
			}
		}
	}
	resolve := func(l layout) *Solution {
		sol := r.evaluateLayout(l)
		sol.Cost = r.cost(sol)
		return sol
	}
	tr := r.Cfg.Trace
	r.Cfg.Status.Begin(r.Circuit.Name, r.estimatorName(), r.Cfg.Anneal.Seed)
	root := r.Cfg.Spans.Start("run")
	//irlint:allow detsource(obs timing only)
	start := time.Now()
	tr.Emit(obs.RunStartEvent{
		Ev:      obs.EvRunStart,
		Time:    start.UTC().Format(time.RFC3339),
		Version: buildinfo.Version(),
		Circuit: r.Circuit.Name,
		Modules: len(r.Circuit.Modules),
		Nets:    len(r.Circuit.Nets),
		Seed:    r.Cfg.Anneal.Seed,
		Alpha:   r.Cfg.Alpha, Beta: r.Cfg.Beta, Gamma: r.Cfg.Gamma,
		Model: r.estimatorName(),
		Pitch: r.Cfg.Pitch,
	})
	s0 := &saState{r: r, l: init, cost: resolve(init).Cost}
	cfg := r.Cfg.Anneal
	if cfg.Obs == nil {
		cfg.Obs = r.Cfg.Obs
	}
	if cfg.Trace == nil {
		cfg.Trace = tr
	}
	if cfg.Recorder == nil {
		cfg.Recorder = r.Cfg.Recorder
	}
	if cfg.Status == nil {
		cfg.Status = r.Cfg.Status
	}
	cfg.CheckpointEvery = r.Cfg.CheckpointEvery
	if sink := r.Cfg.Checkpoint; sink != nil {
		cfg.Checkpoint = func(as *anneal.Snapshot) error {
			snap, err := r.snapshot(as)
			if err != nil {
				return err
			}
			return sink(snap)
		}
	}
	if r.Cfg.Resume != nil {
		as, err := r.annealSnapshot(r.Cfg.Resume)
		if err != nil {
			return nil, anneal.Stats{}, err
		}
		cfg.Resume = as
	}
	if onTemp != nil || tr != nil {
		cfg.OnTemperature = func(step int, _ float64, cur, _ anneal.State) {
			// resolve never touches the annealer's RNG, so the extra
			// evaluations a trace triggers cannot perturb the search.
			sol := resolve(cur.(*saState).l)
			tr.Emit(obs.SolutionEvent{
				Ev: obs.EvSolution, Step: step,
				Area: sol.Area, Wirelength: sol.Wirelength, Congestion: sol.Congestion,
				NormArea:       sol.Area / r.normArea,
				NormWirelength: sol.Wirelength / r.normWire,
				NormCongestion: sol.Congestion / r.normCgt,
				Cost:           sol.Cost,
			})
			if onTemp != nil {
				onTemp(step, sol)
			}
		}
	}
	spAnneal := root.Child("anneal")
	cfg.Span = spAnneal
	best, stats, runErr := anneal.Run(ctx, cfg, s0)
	spAnneal.End()
	restoreEstimator()
	spFin := root.Child("finalize")
	sol := resolve(best.(*saState).l)
	spFin.End()
	root.End()
	outcome := obs.OutcomeCompleted
	switch {
	case runErr == nil:
	case errors.Is(runErr, anneal.ErrCanceled):
		outcome = obs.OutcomeCanceled
	case errors.Is(runErr, anneal.ErrDeadline):
		outcome = obs.OutcomeDeadline
	default:
		outcome = obs.OutcomeError
	}
	r.Cfg.Status.End(outcome)
	//irlint:allow detsource(obs timing only)
	elapsed := time.Since(start).Seconds()
	if in := r.instr; in != nil && elapsed > 0 {
		in.evalsPerSec.Set(float64(stats.Moves+stats.CalibrationMoves) / elapsed)
	}
	if r.Cfg.Spans != nil {
		tr.Emit(obs.SpansEvent{Ev: obs.EvSpans, Spans: r.Cfg.Spans.Aggregates()})
	}
	tr.Emit(obs.RunEndEvent{
		Ev: obs.EvRunEnd, Outcome: outcome,
		Temps: stats.Temps, Moves: stats.Moves,
		CalibrationMoves: stats.CalibrationMoves,
		Accepted:         stats.Accepted, UphillAccepted: stats.UphillAccepted,
		BestStep: stats.BestStep,
		InitTemp: stats.InitTemp, FinalTemp: stats.FinalTemp,
		InitCost: stats.InitCost, FinalCost: stats.FinalCost,
		Seconds: elapsed,
		Metrics: r.Cfg.Obs.Snapshot(),
	})
	if outcome != obs.OutcomeCompleted {
		// An interrupted run is a forensic event: dump the flight
		// recorder (no-op when unarmed). Dump failures never mask the
		// run's own error.
		r.Cfg.Recorder.Dump(outcome)
	}
	return sol, stats, runErr
}

func (r *Runner) estimatorName() string {
	if r.Cfg.Estimator == nil {
		return "none"
	}
	return r.Cfg.Estimator.Name()
}
