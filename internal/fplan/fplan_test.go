package fplan

import (
	"math"
	"testing"

	"irgrid/internal/anneal"
	"irgrid/internal/bench"
	"irgrid/internal/core"
	"irgrid/internal/grid"
	"irgrid/internal/netlist"
	"irgrid/internal/slicing"
)

func tinyCircuit() *netlist.Circuit {
	return &netlist.Circuit{
		Name: "tiny",
		Modules: []netlist.Module{
			{Name: "a", W: 300, H: 300},
			{Name: "b", W: 300, H: 150},
			{Name: "c", W: 150, H: 300},
			{Name: "d", W: 150, H: 150},
		},
		Nets: []netlist.Net{
			{Name: "n1", Pins: []netlist.PinRef{{Module: 0, FX: 0.5, FY: 0.5}, {Module: 1, FX: 0.5, FY: 0.5}}},
			{Name: "n2", Pins: []netlist.PinRef{{Module: 1, FX: 0, FY: 0}, {Module: 2, FX: 1, FY: 1}}},
			{Name: "n3", Pins: []netlist.PinRef{{Module: 0, FX: 1, FY: 0}, {Module: 2, FX: 0, FY: 0}, {Module: 3, FX: 0.5, FY: 1}}},
		},
	}
}

func quickAnneal(seed int64) anneal.Config {
	return anneal.Config{Seed: seed, MovesPerTemp: 25, MaxTemps: 25, CalibrationMoves: 10}
}

func TestNewValidates(t *testing.T) {
	c := tinyCircuit()
	if _, err := New(c, Config{Pitch: 0}); err == nil {
		t.Error("zero pitch accepted")
	}
	if _, err := New(c, Config{Pitch: 30, Weights: Weights{Gamma: 1}}); err == nil {
		t.Error("gamma without estimator accepted")
	}
	bad := tinyCircuit()
	bad.Modules[0].W = -1
	if _, err := New(bad, Config{Pitch: 30}); err == nil {
		t.Error("invalid circuit accepted")
	}
}

func TestEvaluateTerms(t *testing.T) {
	r, err := New(tinyCircuit(), Config{
		Weights: Weights{Alpha: 0.5, Beta: 0.5},
		Pitch:   30, AllowRotate: true, Anneal: quickAnneal(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	s := r.Evaluate(sliceInitial(4))
	if s.Area <= 0 || s.Wirelength <= 0 || s.Cost <= 0 {
		t.Errorf("terms: area=%g wl=%g cost=%g", s.Area, s.Wirelength, s.Cost)
	}
	// Area is at least the module area sum.
	if s.Area < tinyCircuit().TotalModuleArea()-1e-6 {
		t.Errorf("area %g below module sum", s.Area)
	}
	// 3 nets → 2 + 1 + 1 MST edges... n3 has 3 pins → 2 edges; total 4.
	if len(s.Nets) != 4 {
		t.Errorf("decomposed into %d two-pin nets, want 4", len(s.Nets))
	}
	// No congestion term configured.
	if s.Congestion != 0 {
		t.Errorf("congestion = %g without estimator", s.Congestion)
	}
}

func TestPinsSnappedToPitch(t *testing.T) {
	r, err := New(tinyCircuit(), Config{
		Weights: Weights{Alpha: 1}, Pitch: 30, Anneal: quickAnneal(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	s := r.Evaluate(sliceInitial(4))
	for _, n := range s.Nets {
		for _, p := range []float64{n.A.X, n.A.Y, n.B.X, n.B.Y} {
			if math.Abs(p-math.Round(p/30)*30) > 1e-9 {
				t.Fatalf("pin coordinate %g not on 30 µm intersection", p)
			}
		}
	}
}

func TestRunImprovesCost(t *testing.T) {
	r, err := New(tinyCircuit(), Config{
		Weights: Weights{Alpha: 0.5, Beta: 0.5},
		Pitch:   30, AllowRotate: true, Anneal: quickAnneal(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	init := r.Evaluate(sliceInitial(4))
	best, st, _ := r.Run(nil, nil)
	if best.Cost > init.Cost+1e-9 {
		t.Errorf("run did not improve: %g -> %g", init.Cost, best.Cost)
	}
	if st.Moves == 0 {
		t.Error("no moves recorded")
	}
}

func TestRunReproducible(t *testing.T) {
	mk := func() *Solution {
		r, err := New(tinyCircuit(), Config{
			Weights:   Weights{Alpha: 0.4, Beta: 0.3, Gamma: 0.3},
			Estimator: core.Model{Pitch: 30},
			Pitch:     30, AllowRotate: true, Anneal: quickAnneal(7),
		})
		if err != nil {
			t.Fatal(err)
		}
		s, _, _ := r.Run(nil, nil)
		return s
	}
	a, b := mk(), mk()
	if a.Cost != b.Cost || a.Area != b.Area || a.Wirelength != b.Wirelength {
		t.Errorf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestRunWithCongestionEstimators(t *testing.T) {
	for _, est := range []Estimator{
		grid.Model{Pitch: 100},
		core.Model{Pitch: 30},
		core.Model{Pitch: 30, Exact: true},
	} {
		r, err := New(tinyCircuit(), Config{
			Weights:   Weights{Alpha: 0.3, Beta: 0.3, Gamma: 0.4},
			Estimator: est, Pitch: 30, AllowRotate: true, Anneal: quickAnneal(11),
		})
		if err != nil {
			t.Fatalf("%s: %v", est.Name(), err)
		}
		s, _, _ := r.Run(nil, nil)
		if s.Congestion <= 0 {
			t.Errorf("%s: congestion = %g", est.Name(), s.Congestion)
		}
	}
}

func TestOnTempHookDeliversSolutions(t *testing.T) {
	r, err := New(tinyCircuit(), Config{
		Weights: Weights{Alpha: 1}, Pitch: 30, Anneal: quickAnneal(13),
	})
	if err != nil {
		t.Fatal(err)
	}
	var n int
	var lastArea float64
	_, st, _ := r.Run(nil, func(step int, sol *Solution) {
		n++
		lastArea = sol.Area
	})
	if n != st.Temps {
		t.Errorf("hook called %d times for %d temps", n, st.Temps)
	}
	if lastArea <= 0 {
		t.Error("hook received empty solution")
	}
}

func TestCongestionOptimizationReducesJudgingCost(t *testing.T) {
	// The paper's Experiment 1 in miniature: optimizing with the
	// IR-grid congestion term must not increase the judging-model
	// congestion relative to area/wire-only optimization.
	if testing.Short() {
		t.Skip("anneal comparison is slow")
	}
	c := bench.MustLoad("apte")
	judge := grid.Model{Pitch: 10}

	run := func(gamma float64, est Estimator) float64 {
		w := Weights{Alpha: 0.5, Beta: 0.5}
		if gamma > 0 {
			w = Weights{Alpha: 0.3, Beta: 0.2, Gamma: gamma}
		}
		r, err := New(c, Config{
			Weights: w, Estimator: est, Pitch: 60, AllowRotate: true,
			Anneal: anneal.Config{Seed: 17, MovesPerTemp: 25, MaxTemps: 25, CalibrationMoves: 10},
		})
		if err != nil {
			t.Fatal(err)
		}
		s, _, _ := r.Run(nil, nil)
		return judge.Score(s.Placement.Chip, s.Nets)
	}

	noCgt := run(0, nil)
	withCgt := run(0.5, core.Model{Pitch: 60})
	t.Logf("judging congestion: area/wire-only %.4f, with IR term %.4f", noCgt, withCgt)
	// Allow slack: short anneals are noisy; the IR term must at least
	// not blow congestion up.
	if withCgt > noCgt*1.25 {
		t.Errorf("congestion optimization made things worse: %g -> %g", noCgt, withCgt)
	}
}

func sliceInitial(n int) slicing.Expr { return slicing.Initial(n) }

func TestSeqPairRepresentation(t *testing.T) {
	r, err := New(tinyCircuit(), Config{
		Weights: Weights{Alpha: 0.5, Beta: 0.5},
		Pitch:   30, AllowRotate: true,
		Representation: ReprSeqPair,
		Anneal:         quickAnneal(23),
	})
	if err != nil {
		t.Fatal(err)
	}
	sol, st, _ := r.Run(nil, nil)
	if sol.Area <= 0 || sol.Wirelength <= 0 {
		t.Fatalf("solution %+v", sol)
	}
	if sol.Expr != nil {
		t.Error("seqpair solutions have no Polish expression")
	}
	if st.Moves == 0 {
		t.Error("no moves")
	}
	// Placement integrity: no overlaps.
	pl := sol.Placement
	for i := range pl.Rects {
		for j := i + 1; j < len(pl.Rects); j++ {
			a, b := pl.Rects[i], pl.Rects[j]
			if a.X1 < b.X2-1e-9 && b.X1 < a.X2-1e-9 && a.Y1 < b.Y2-1e-9 && b.Y1 < a.Y2-1e-9 {
				t.Fatalf("overlap between %v and %v", a, b)
			}
		}
	}
}

func TestSeqPairReproducible(t *testing.T) {
	mk := func() float64 {
		r, err := New(tinyCircuit(), Config{
			Weights: Weights{Alpha: 1}, Pitch: 30,
			Representation: ReprSeqPair, Anneal: quickAnneal(29),
		})
		if err != nil {
			t.Fatal(err)
		}
		s, _, _ := r.Run(nil, nil)
		return s.Area
	}
	if mk() != mk() {
		t.Error("seqpair runs with equal seeds diverged")
	}
}

func TestUnknownRepresentationRejected(t *testing.T) {
	_, err := New(tinyCircuit(), Config{Pitch: 30, Representation: "btree"})
	if err == nil {
		t.Error("unknown representation accepted")
	}
}

// TestIncrementalMatchesFullEval is the pipeline-level bit-identity
// guarantee of the delta evaluation engine: the same seeded run with
// incremental scoring (the default) and with FullEval must produce
// identical trajectories — same stats, same best solution, same
// congestion — because every per-move score is bit-identical.
func TestIncrementalMatchesFullEval(t *testing.T) {
	run := func(fullEval bool, seed int64) (*Solution, anneal.Stats) {
		r, err := New(tinyCircuit(), Config{
			Weights:   Weights{Alpha: 0.3, Beta: 0.3, Gamma: 0.4},
			Estimator: core.Model{Pitch: 30},
			Pitch:     30, AllowRotate: true, Anneal: quickAnneal(seed),
			FullEval: fullEval,
		})
		if err != nil {
			t.Fatal(err)
		}
		if fullEval != (r.moveEst == nil) {
			t.Fatalf("FullEval=%v but moveEst=%v", fullEval, r.moveEst)
		}
		s, st, err := r.Run(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return s, st
	}
	for _, seed := range []int64{7, 19, 43} {
		inc, incSt := run(false, seed)
		full, fullSt := run(true, seed)
		if incSt != fullSt {
			t.Fatalf("seed %d: stats diverged:\nincremental %+v\nfull        %+v", seed, incSt, fullSt)
		}
		if inc.Cost != full.Cost || inc.Area != full.Area ||
			inc.Wirelength != full.Wirelength || inc.Congestion != full.Congestion {
			t.Fatalf("seed %d: solutions diverged:\nincremental %+v\nfull        %+v", seed, inc, full)
		}
	}
}

// TestMoveScorerGating checks when the delta engine engages: never with
// FullEval, never without a congestion term, and never for estimators
// lacking the hook.
func TestMoveScorerGating(t *testing.T) {
	mk := func(cfg Config) *Runner {
		cfg.Pitch = 30
		cfg.Anneal = quickAnneal(1)
		r, err := New(tinyCircuit(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	if r := mk(Config{Weights: Weights{Alpha: 0.6, Gamma: 0.4}, Estimator: core.Model{Pitch: 30}}); r.moveEst == nil {
		t.Error("IR-grid estimator with Gamma: delta engine not engaged")
	}
	if r := mk(Config{Weights: Weights{Alpha: 0.6, Gamma: 0.4}, Estimator: core.Model{Pitch: 30}, FullEval: true}); r.moveEst != nil {
		t.Error("FullEval: delta engine engaged anyway")
	}
	if r := mk(Config{Weights: Weights{Alpha: 1}}); r.moveEst != nil {
		t.Error("no congestion term: delta engine engaged anyway")
	}
	if r := mk(Config{Weights: Weights{Alpha: 0.6, Gamma: 0.4}, Estimator: grid.Model{Pitch: 100}}); r.moveEst != nil {
		t.Error("fixed-grid estimator: delta engine engaged without hook")
	}
}
