package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"irgrid/internal/geom"
	"irgrid/internal/netlist"
)

// engineChip and engineNets build a fixed synthetic instance that
// exercises both evaluation paths (short exact spans and long Simpson
// spans).
func engineChip() geom.Rect { return geom.Rect{X1: 0, Y1: 0, X2: 3000, Y2: 2400} }

func engineNets(n int) []netlist.TwoPin {
	rng := rand.New(rand.NewSource(20040216)) // fixed: the fixture is part of the test
	chip := engineChip()
	nets := make([]netlist.TwoPin, n)
	for i := range nets {
		a := geom.Pt{
			X: chip.X1 + rng.Float64()*chip.W(),
			Y: chip.Y1 + rng.Float64()*chip.H(),
		}
		// Mix of long diagonal nets, short local nets and a few
		// degenerate (shared row/column) nets.
		var b geom.Pt
		switch i % 7 {
		case 0:
			b = geom.Pt{X: a.X, Y: chip.Y1 + rng.Float64()*chip.H()}
		case 1, 2:
			b = geom.Pt{
				X: math.Min(chip.X2, a.X+rng.Float64()*200),
				Y: math.Max(chip.Y1, a.Y-rng.Float64()*200),
			}
		default:
			b = geom.Pt{
				X: chip.X1 + rng.Float64()*chip.W(),
				Y: chip.Y1 + rng.Float64()*chip.H(),
			}
		}
		nets[i] = netlist.TwoPin{A: a, B: b}
	}
	return nets
}

// TestEvaluateParallelDeterminism pins that the deprecated Workers
// field has no effect: the probability map must be bit-identical — not
// merely close — for every Workers setting, because SA acceptance
// decisions compare scores across moves and callers that still set the
// field must get the same runs as those that do not.
func TestEvaluateParallelDeterminism(t *testing.T) {
	chip := engineChip()
	nets := engineNets(700)

	ref := Model{Pitch: 4, Workers: 1}.Evaluate(chip, nets)
	for _, workers := range []int{2, 3, 4, 8, 16} {
		mp := Model{Pitch: 4, Workers: workers}.NewEvaluator().Evaluate(chip, nets)
		if len(mp.Prob) != len(ref.Prob) {
			t.Fatalf("Workers=%d: %d cells, want %d", workers, len(mp.Prob), len(ref.Prob))
		}
		for i := range ref.Prob {
			if mp.Prob[i] != ref.Prob[i] { // bitwise, no tolerance
				t.Fatalf("Workers=%d: cell %d = %.17g, sequential %.17g (diff %g)",
					workers, i, mp.Prob[i], ref.Prob[i], mp.Prob[i]-ref.Prob[i])
			}
		}
	}
}

// TestEvaluatorReuseIsStable holds one Evaluator across repeated calls
// (the SA steady state): warm memos and reused arenas must not change
// a single bit of the output.
func TestEvaluatorReuseIsStable(t *testing.T) {
	chip := engineChip()
	nets := engineNets(500)
	e := Model{Pitch: 4}.NewEvaluator()

	first := e.Evaluate(chip, nets).Clone()
	for round := 0; round < 3; round++ {
		mp := e.Evaluate(chip, nets)
		for i := range first.Prob {
			if mp.Prob[i] != first.Prob[i] {
				t.Fatalf("round %d: cell %d drifted: %.17g vs %.17g",
					round, i, mp.Prob[i], first.Prob[i])
			}
		}
	}
	if s1, s2 := e.Score(chip, nets), e.Score(chip, nets); s1 != s2 {
		t.Fatalf("Score not stable across reuse: %.17g vs %.17g", s1, s2)
	}
}

// TestEvaluatorMatchesModelEvaluate pins the compatibility wrappers to
// the engine: Model.Evaluate/Score must be exactly the pooled-engine
// result.
func TestEvaluatorMatchesModelEvaluate(t *testing.T) {
	chip := engineChip()
	nets := engineNets(300)
	m := Model{Pitch: 4, TopFraction: 0.1}

	e := m.NewEvaluator()
	want := e.Evaluate(chip, nets).Clone()
	got := m.Evaluate(chip, nets)
	if got.Cols() != want.Cols() || got.Rows() != want.Rows() {
		t.Fatalf("grid mismatch: %dx%d vs %dx%d", got.Cols(), got.Rows(), want.Cols(), want.Rows())
	}
	for i := range want.Prob {
		if got.Prob[i] != want.Prob[i] {
			t.Fatalf("cell %d: wrapper %.17g, engine %.17g", i, got.Prob[i], want.Prob[i])
		}
	}
	if ws, ms := e.Score(chip, nets), m.Score(chip, nets); ws != ms {
		t.Fatalf("Score: wrapper %.17g, engine %.17g", ms, ws)
	}
}

// TestEvaluatorSteadyStateAllocs verifies the arena actually works: a
// warmed engine must not allocate per Score call, on a small instance
// and on a 500-net one from a model that still sets the ignored
// Workers field.
func TestEvaluatorSteadyStateAllocs(t *testing.T) {
	chip := engineChip()
	for _, tc := range []struct {
		name    string
		nets    int
		workers int
	}{
		{name: "seq", nets: 200, workers: 1},
		{name: "par4", nets: 500, workers: 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nets := engineNets(tc.nets)
			e := Model{Pitch: 4, Workers: tc.workers}.NewEvaluator()
			for i := 0; i < 3; i++ { // warm arenas and memos
				e.Score(chip, nets)
			}
			avg := testing.AllocsPerRun(10, func() { e.Score(chip, nets) })
			if avg > 0.5 {
				t.Fatalf("steady-state Score allocates %.1f times per call, want 0", avg)
			}
		})
	}
}

// TestEvaluateStopsOnCanceledContext pins the cancellation contract:
// Model.Ctx is checked before the first net and every ctxCheckNets nets
// after, so an already-canceled evaluation accumulates nothing, and a
// later call with a live context on the same engine is exact again.
func TestEvaluateStopsOnCanceledContext(t *testing.T) {
	chip := engineChip()
	nets := engineNets(300)
	want := Model{Pitch: 4}.NewEvaluator().Evaluate(chip, nets).Clone()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := Model{Pitch: 4, Ctx: ctx}.NewEvaluator()
	for i, v := range e.Evaluate(chip, nets).Prob {
		if v != 0 {
			t.Fatalf("canceled evaluation accumulated cell %d = %g", i, v)
		}
	}
	e.reconfigure(Model{Pitch: 4})
	got := e.Evaluate(chip, nets)
	for i, v := range want.Prob {
		if got.Prob[i] != v {
			t.Fatalf("cell %d after a canceled call: %g, want %g", i, got.Prob[i], v)
		}
	}
}

// TestPooledEvaluatorReconfigures ensures the wrapper pool does not
// serve memo entries cached under a different model configuration.
func TestPooledEvaluatorReconfigures(t *testing.T) {
	chip := engineChip()
	nets := engineNets(300)

	approx := Model{Pitch: 4}
	exact := Model{Pitch: 4, Exact: true}
	wantExact := exact.NewEvaluator().Evaluate(chip, nets).Clone()

	// Interleave configurations through the shared pool; the exact
	// model must keep producing exact results.
	for i := 0; i < 3; i++ {
		approx.Evaluate(chip, nets)
		got := exact.Evaluate(chip, nets)
		for j := range wantExact.Prob {
			if got.Prob[j] != wantExact.Prob[j] {
				t.Fatalf("iteration %d: pooled exact result drifted at cell %d", i, j)
			}
		}
	}
}
