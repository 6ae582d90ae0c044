package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"irgrid/floorplan"
	"irgrid/internal/anneal"
	"irgrid/internal/bench"
	"irgrid/internal/core"
	"irgrid/internal/fplan"
	"irgrid/internal/geom"
	"irgrid/internal/mst"
	"irgrid/internal/netlist"
	"irgrid/internal/obs"
	"irgrid/internal/pins"
	"irgrid/internal/slicing"
	"irgrid/internal/wl"
)

// annealSpec is one anneal workload: the ROADMAP configuration
// (slicing, ir-grid with the delta engine, α/β/γ = .4/.2/.4, pitch 30)
// on one circuit with a fixed schedule.
type annealSpec struct {
	circuit      string
	moves, temps int // schedule: moves per temperature × temperatures
	seeds        int // inputs per run: seeds subSeed(seed, 0..seeds-1)
	replay       int // traced run: neighbours replayed per temperature
}

var ami33 = annealSpec{circuit: "ami33", moves: 100, temps: 40, seeds: 4, replay: 8}

const (
	pitch     = 30
	ckptEvery = 5 // temperatures between checkpoints, floorpland's default
)

func (s annealSpec) config(est fplan.Estimator, seed int64) fplan.Config {
	return fplan.Config{
		Weights:     fplan.Weights{Alpha: 0.4, Beta: 0.2, Gamma: 0.4},
		Estimator:   est,
		Pitch:       pitch,
		AllowRotate: true,
		Anneal:      anneal.Config{Seed: seed, MovesPerTemp: s.moves, MaxTemps: s.temps},
	}
}

// clockedModel is the IR-grid estimator with fplan's move-scorer hook
// rerouted through a clockedScorer, so every delta Score the run makes
// is stamped (and, traced, timed) from outside the program.
type clockedModel struct {
	m  core.Model
	sc *clockedScorer
}

func (c *clockedModel) Name() string { return c.m.Name() }

func (c *clockedModel) Score(chip geom.Rect, nets []netlist.TwoPin) float64 {
	return c.m.Score(chip, nets)
}

// NewMoveScorer implements fplan's incremental-evaluation hook.
func (c *clockedModel) NewMoveScorer() any {
	c.sc.d = c.m.NewDeltaEvaluator()
	return c.sc
}

// clockedScorer wraps the delta engine. Untraced it only records the
// start of every Score (successive starts bound one whole move);
// traced it also times Score and Rollback.
type clockedScorer struct {
	d      *core.DeltaEvaluator
	base   time.Time
	stamps []time.Duration // Score start offsets from base
	traced bool
	score  []time.Duration // traced: per-call Score time
	rb     time.Duration   // traced: total Rollback time
}

func (c *clockedScorer) Score(chip geom.Rect, nets []netlist.TwoPin) float64 {
	t := time.Since(c.base)
	c.stamps = append(c.stamps, t)
	s := c.d.Score(chip, nets)
	if c.traced {
		c.score = append(c.score, time.Since(c.base)-t)
	}
	return s
}

func (c *clockedScorer) Rollback() {
	if !c.traced {
		c.d.Rollback()
		return
	}
	t := time.Now()
	c.d.Rollback()
	c.rb += time.Since(t)
}

// reset clears the records and preallocates them for n calls, so the
// timed section does not grow them.
func (c *clockedScorer) reset(n int) {
	c.base = time.Now()
	c.stamps = make([]time.Duration, 0, n)
	c.rb = 0
	if c.traced {
		c.score = make([]time.Duration, 0, n)
	}
}

// annealRun is one repetition: set-up, then Runner.Run timed.
type annealRun struct {
	sample
	c      *netlist.Circuit
	runner *fplan.Runner
	sc     *clockedScorer
	stats  anneal.Stats
	sol    *fplan.Solution
	temps  []slicing.Expr // traced: per-temperature current solutions
	delta  map[string]int64
	saves  []ckptSave // traced: floorplan.SaveCheckpoint calls during the run
	falls  int64      // traced: full rebuilds over the runner's life, set-up included
}

// ckptSave is one floorplan.SaveCheckpoint call.
type ckptSave struct {
	d     time.Duration
	bytes int64
}

// deltaCounters are the delta engine's Obs counters the traced run
// reads.
var deltaCounters = []string{
	"eval_full_fallbacks", "eval_dirty_nets",
	"eval_axis_cache_hits_total", "eval_axis_cache_misses_total",
	"eval_vec_reuse_total", "eval_vec_memo_hits_total", "eval_vec_sweeps_total",
}

// annealOnce runs one repetition. Traced, the run also checkpoints
// every ckptEvery temperatures through floorplan.SaveCheckpoint into
// dir, as floorpland does; the saves are timed and left out of the
// run's wall time.
func annealOnce(spec annealSpec, seed int64, traced bool, dir string) (*annealRun, error) {
	t0 := settle()
	c, err := bench.Load(spec.circuit)
	if err != nil {
		return nil, err
	}
	m := core.Model{Pitch: pitch}
	var reg *obs.Registry
	if traced {
		reg = obs.NewRegistry()
		m.Obs = reg
	}
	sc := &clockedScorer{traced: traced}
	ar := &annealRun{c: c, sc: sc}
	cfg := spec.config(&clockedModel{m: m, sc: sc}, seed)
	if traced {
		path := filepath.Join(dir, "run.ckpt")
		cfg.CheckpointEvery = ckptEvery
		cfg.Checkpoint = func(s *fplan.Snapshot) error {
			t := time.Now()
			if err := floorplan.SaveCheckpoint(path, s); err != nil {
				return err
			}
			d := time.Since(t)
			fi, err := os.Stat(path)
			if err != nil {
				return err
			}
			ar.saves = append(ar.saves, ckptSave{d, fi.Size()})
			return nil
		}
	}
	r, err := fplan.New(c, cfg)
	if err != nil {
		return nil, err
	}
	setup := time.Since(t0).Seconds()
	ar.runner = r
	var onTemp func(int, *fplan.Solution)
	if traced {
		ar.temps = make([]slicing.Expr, 0, spec.temps)
		onTemp = func(_ int, s *fplan.Solution) { ar.temps = append(ar.temps, s.Expr.Clone()) }
	}
	before := counterValues(reg)
	sc.reset(spec.moves*spec.temps + 2*spec.temps + 64)
	sec := begin()
	sol, stats, err := r.Run(context.Background(), onTemp)
	if err != nil {
		return nil, err
	}
	if stats.CheckpointErrors > 0 {
		return nil, fmt.Errorf("input %d: %d checkpoint saves failed", seed, stats.CheckpointErrors)
	}
	ar.sample = sec.end(stats.Moves+stats.CalibrationMoves, seed, sol.Cost)
	for _, s := range ar.saves {
		ar.wall -= s.d.Seconds()
	}
	ar.setup = setup
	ar.lat = ar.moveLatencies()
	ar.stats, ar.sol = stats, sol
	if traced {
		after := counterValues(reg)
		ar.delta = map[string]int64{}
		for k, v := range after {
			ar.delta[k] = v - before[k]
		}
		ar.falls = after["eval_full_fallbacks"]
	}
	return ar, nil
}

func counterValues(reg *obs.Registry) map[string]int64 {
	out := map[string]int64{}
	if reg == nil {
		return out
	}
	for _, n := range deltaCounters {
		out[n] = reg.Counter(n).Value()
	}
	return out
}

// moveLatencies returns the gaps between successive Score starts (ms):
// each is one whole move — perturb, pack, pins, MST, wirelength,
// congestion score, Metropolis decision and any rollback.
func (ar *annealRun) moveLatencies() []float64 {
	st := ar.sc.stamps
	out := make([]float64, 0, len(st))
	for i := 1; i < len(st); i++ {
		out = append(out, float64(st[i]-st[i-1])/1e6)
	}
	return out
}

// checkFinal verifies the run's final solution: its delta-engine
// congestion equals a from-scratch core.Model.Score bit for bit, with
// the default and with a single worker.
func (ar *annealRun) checkFinal(rep *report) {
	chip, nets := ar.sol.Placement.Chip, ar.sol.Nets
	full := core.Model{Pitch: pitch}.Score(chip, nets)
	seq := core.Model{Pitch: pitch, Workers: 1}.Score(chip, nets)
	rep.check(full == ar.sol.Congestion && seq == full,
		"delta congestion %v != core.Model.Score %v (Workers=1: %v)", ar.sol.Congestion, full, seq)
}

func runAnneal(o options, spec annealSpec) (*report, error) {
	rep := &report{}
	rep.note("params: circuit=%s schedule=%dx%d alpha/beta/gamma=.4/.2/.4 pitch=%d model=ir-grid+delta inputs=%d",
		spec.circuit, spec.moves, spec.temps, pitch, spec.seeds)
	if o.trace {
		return rep, annealTraced(o, spec, rep)
	}
	var reps []sample
	w := newWindow(o.seconds)
	for w.next(1) {
		for i := 0; i < spec.seeds; i++ {
			ar, err := annealOnce(spec, subSeed(o.seed, i), false, "")
			if err != nil {
				return nil, err
			}
			ar.checkFinal(rep)
			rep.attempted += ar.ops
			reps = append(reps, ar.sample)
		}
	}
	return rep, endToEnd(rep, reps, "scored SA moves (search + calibration)")
}

// annealTraced alternates untraced and traced repetitions of each
// input (the untraced one is the overhead baseline) for four fifths of
// the window, and then times the from-scratch evaluation layers on the
// traced runs' final floorplans.
func annealTraced(o options, spec annealSpec, rep *report) error {
	dir, err := os.MkdirTemp(o.tmp, "perfbench-ckpt-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var tr tracedRuns
	start := time.Now()
	w := newWindow(o.seconds * 0.8)
	for w.next(1) {
		for i := 0; i < spec.seeds; i++ {
			seed := subSeed(o.seed, i)
			plain, err := annealOnce(spec, seed, false, dir)
			if err != nil {
				return err
			}
			ar, err := annealOnce(spec, seed, true, dir)
			if err != nil {
				return err
			}
			rep.check(ar.cost == plain.cost, "input %d: traced final cost %v != untraced %v", seed, ar.cost, plain.cost)
			tr.overhead = append(tr.overhead, 1-plain.wall/ar.wall)
			if err := tr.add(ar, spec, seed, rep); err != nil {
				return err
			}
		}
	}
	if err := fullEvalLayers(o.seconds-time.Since(start).Seconds(), tr.finals, rep); err != nil {
		return err
	}
	rep.add("trace.overhead_share", median(tr.overhead), "ratio")
	rep.note("trace overhead per input pair %.4g", tr.overhead)
	return tr.report(rep)
}

// tracedRuns accumulates the per-layer figures of traced anneal runs.
type tracedRuns struct {
	overhead      []float64
	scoreNs       []float64
	rb, wall      time.Duration
	moves, accept int
	falls         int64
	runs          int
	counters      map[string]int64
	lay           layerTimes
	saves         []ckptSave
	finals        []placement // one per input, in input order
	seen          map[int64]bool
}

// add takes one finished traced run: it checks its final solution,
// collects its timings and counters, and replays its per-temperature
// solutions through the layers.
func (tr *tracedRuns) add(ar *annealRun, spec annealSpec, seed int64, rep *report) error {
	ar.checkFinal(rep)
	rep.attempted += ar.ops
	tr.wall += time.Duration(ar.wall * float64(time.Second))
	for _, d := range ar.sc.score {
		tr.scoreNs = append(tr.scoreNs, float64(d))
	}
	tr.rb += ar.sc.rb
	tr.moves += ar.stats.Moves
	tr.accept += ar.stats.Accepted
	tr.falls += ar.falls
	tr.runs++
	if tr.counters == nil {
		tr.counters, tr.seen = map[string]int64{}, map[int64]bool{}
	}
	for k, v := range ar.delta {
		tr.counters[k] += v
	}
	tr.saves = append(tr.saves, ar.saves...)
	if !tr.seen[seed] {
		tr.finals = append(tr.finals, placementOf(spec.circuit, ar.sol))
	}
	tr.seen[seed] = true
	return tr.lay.replay(ar, spec, seed, rep)
}

// report adds the anneal layers' metrics and the checkpoint saves'.
func (tr *tracedRuns) report(rep *report) error {
	n := float64(len(tr.scoreNs))
	var scoreSum float64
	for _, v := range tr.scoreNs {
		scoreSum += v
	}
	p95, ok := percentile(tr.scoreNs, 0.95)
	if !ok {
		return fmt.Errorf("%d scored moves cannot support core.score_us_p95", len(tr.scoreNs))
	}
	if len(tr.saves) == 0 {
		return fmt.Errorf("no checkpoints saved")
	}
	lay, counters := &tr.lay, tr.counters
	perEval := lay.perEval()
	rep.add("slicing.pack_us_per_move", perEval.pack, "us")
	rep.add("pins.snap_us_per_move", perEval.pins, "us")
	rep.add("mst.tree_us_per_move", perEval.mst, "us")
	rep.add("mst.two_pin_nets_per_move", float64(lay.twoPin)/float64(lay.n), "count")
	rep.add("wl.eval_us_per_move", perEval.wl, "us")
	rep.add("fplan.evaluate_us_per_move", perEval.evaluate, "us")
	rep.add("core.score_us_per_move", scoreSum/n/1e3, "us")
	rep.add("core.score_us_p95", p95/1e3, "us")
	rep.add("core.rollback_us_per_move", float64(tr.rb)/float64(tr.moves)/1e3, "us")
	rep.add("anneal.accept_ratio", float64(tr.accept)/float64(tr.moves), "ratio")
	memo, sweeps := float64(counters["eval_vec_memo_hits_total"]), float64(counters["eval_vec_sweeps_total"])
	ah, am := float64(counters["eval_axis_cache_hits_total"]), float64(counters["eval_axis_cache_misses_total"])
	rep.add("core.sweeps_per_move", sweeps/n, "count")
	rep.add("core.vec_memo_hit_ratio", ratio(memo, memo+sweeps), "ratio")
	rep.add("core.vec_reuse_per_move", float64(counters["eval_vec_reuse_total"])/n, "count")
	rep.add("core.axis_hit_ratio", ratio(ah, ah+am), "ratio")
	rep.add("core.dirty_nets_per_move", float64(counters["eval_dirty_nets"])/n, "count")
	rep.add("core.full_fallbacks", float64(tr.falls)/float64(tr.runs), "count")
	// The whole is the traced runs' wall time; the parts are every
	// evaluation's replayed layer cost plus the measured congestion
	// score and rollback time.
	layers := n * (perEval.pack + perEval.pins + perEval.mst + perEval.wl) * 1e3
	rep.add("fplan.unattributed_share", unattributedShare(float64(tr.wall), layers, scoreSum, float64(tr.rb)), "ratio")
	var save []float64
	var bytes float64
	for _, s := range tr.saves {
		save = append(save, float64(s.d)/1e6)
		bytes += float64(s.bytes)
	}
	rep.add("ckpt.save_ms_p50", median(save), "ms")
	rep.add("ckpt.bytes_per_save", bytes/float64(len(tr.saves)), "bytes")
	rep.note("replayed %d neighbour expressions; Runner.Evaluate %.1fus vs layer sum %.1fus (unattributed %.1f%%)",
		lay.n, perEval.evaluate, perEval.pack+perEval.pins+perEval.mst+perEval.wl+perEval.score,
		100*unattributedShare(perEval.evaluate, perEval.pack, perEval.pins, perEval.mst, perEval.wl, perEval.score))
	rep.note("%d traced runs, %d scored moves, %d checkpoint saves; delta counters over the runs: %v; full rebuilds over the runners' lives: %d",
		tr.runs, len(tr.scoreNs), len(tr.saves), counters, tr.falls)
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerTimes accumulates the replay of neighbour expressions through
// the layers fplan.evaluateLayout calls, in its order: pack, pin snap,
// wirelength, MST decomposition, then the congestion score inside
// Runner.Evaluate.
type layerTimes struct {
	n                                    int
	pack, pins, wl, mst, evaluate, score time.Duration
	twoPin                               int
	pts                                  []geom.Pt
	nets                                 []netlist.TwoPin
}

type perEvalUs struct{ pack, pins, mst, wl, evaluate, score float64 }

func (lt *layerTimes) perEval() perEvalUs {
	n := float64(lt.n) * 1e3
	if lt.n == 0 {
		n = 1
	}
	return perEvalUs{float64(lt.pack) / n, float64(lt.pins) / n, float64(lt.mst) / n,
		float64(lt.wl) / n, float64(lt.evaluate) / n, float64(lt.score) / n}
}

// replay perturbs each per-temperature solution of a finished traced
// run spec.replay times and evaluates every neighbour twice: layer by
// layer, and through Runner.Evaluate. The two must agree bit for bit.
func (lt *layerTimes) replay(ar *annealRun, spec annealSpec, seed int64, rep *report) error {
	packer := slicing.NewPacker(ar.c.Modules, true)
	rng := rand.New(rand.NewSource(seed))
	wire := wl.Model("") // fplan's default wirelength model
	for _, base := range ar.temps {
		for k := 0; k < spec.replay; k++ {
			e := base.Clone()
			e.Perturb(rng)
			t0 := time.Now()
			pl, err := packer.Pack(e)
			if err != nil {
				return err
			}
			t1 := time.Now()
			chip := pl.Chip
			snap := pins.New(chip, pitch)
			pts := lt.pts[:0]
			for _, n := range ar.c.Nets {
				for _, p := range n.Pins {
					pts = append(pts, snap.SnapClamped(pl.PinPosition(p), chip))
				}
			}
			t2 := time.Now()
			var length float64
			at := 0
			for _, n := range ar.c.Nets {
				length += wire.Eval(pts[at : at+len(n.Pins)])
				at += len(n.Pins)
			}
			t3 := time.Now()
			nets := lt.nets[:0]
			at = 0
			for _, n := range ar.c.Nets {
				np := pts[at : at+len(n.Pins)]
				for _, edge := range mst.Tree(np) {
					nets = append(nets, netlist.TwoPin{A: np[edge[0]], B: np[edge[1]]})
				}
				at += len(n.Pins)
			}
			t4 := time.Now()
			mark := len(ar.sc.score)
			sol := ar.runner.Evaluate(e)
			t5 := time.Now()
			if len(ar.sc.score) > mark {
				lt.score += ar.sc.score[len(ar.sc.score)-1]
				ar.sc.score = ar.sc.score[:mark]
			}
			lt.pts, lt.nets = pts, nets
			lt.n++
			lt.pack += t1.Sub(t0)
			lt.pins += t2.Sub(t1)
			lt.wl += t3.Sub(t2)
			lt.mst += t4.Sub(t3)
			lt.evaluate += t5.Sub(t4)
			lt.twoPin += len(nets)
			rep.check(sol.Area == chip.Area() && sol.Wirelength == length && sameNets(sol.Nets, nets),
				"replayed layers disagree with Runner.Evaluate on %v", e)
		}
	}
	return nil
}

func sameNets(a, b []netlist.TwoPin) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
