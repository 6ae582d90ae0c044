package diff

import (
	"math/rand"
	"testing"

	"irgrid/internal/bench"
	"irgrid/internal/core"
)

// TestDifferentialRandomCircuits is the bulk of the acceptance run:
// randomized circuits with adversarial net shapes, engine vs oracle,
// sequential and parallel, every cell within its documented budget.
func TestDifferentialRandomCircuits(t *testing.T) {
	n := 1000
	if testing.Short() {
		n = 100
	}
	rng := rand.New(rand.NewSource(1))
	var rp Report
	for i := 0; i < n; i++ {
		pitch := 30.0
		chip := RandomChip(rng, pitch)
		nets := RandomNets(rng, chip, 1+rng.Intn(40), pitch)
		r, err := Compare(chip, nets, Opts{Model: core.Model{Pitch: pitch}})
		rp.Add(r, err)
		if err != nil {
			t.Fatalf("circuit %d (%d nets, %dx%d grid): %v", i, r.Nets, r.Cols, r.Rows, err)
		}
	}
	t.Logf("%d circuits, %d cells (%d exact, %d approx): maxExactErr=%.3g maxApproxErr=%.3g maxScoreErr=%.3g",
		rp.Circuits, rp.Cells, rp.ExactCells, rp.ApproxCells,
		rp.MaxExactErr, rp.MaxApproxErr, rp.MaxScoreErr)
}

// TestDifferentialParallelLargeCircuits drives large circuits (300 to
// 600 nets, the size that once took a sharded parallel path) through
// the per-cell budget checks.
func TestDifferentialParallelLargeCircuits(t *testing.T) {
	n := 12
	if testing.Short() {
		n = 3
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < n; i++ {
		pitch := 30.0
		chip := RandomChip(rng, pitch)
		nets := RandomNets(rng, chip, 300+rng.Intn(300), pitch)
		r, err := Compare(chip, nets, Opts{
			Model: core.Model{Pitch: pitch},
		})
		if err != nil {
			t.Fatalf("circuit %d (%d nets, %dx%d grid): %v", i, r.Nets, r.Cols, r.Rows, err)
		}
	}
}

// TestDifferentialRational runs the big-rational oracle backend — no
// floating point anywhere on the reference side — on small circuits.
func TestDifferentialRational(t *testing.T) {
	n := 150
	if testing.Short() {
		n = 20
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < n; i++ {
		pitch := 30.0
		chip := RandomChip(rng, pitch)
		// Keep lattices small: big.Rat escape sums are quadratic-ish.
		if chip.W() > 16*pitch {
			chip.X2 = chip.X1 + 16*pitch
		}
		if chip.H() > 16*pitch {
			chip.Y2 = chip.Y1 + 16*pitch
		}
		nets := RandomNets(rng, chip, 1+rng.Intn(12), pitch)
		r, err := Compare(chip, nets, Opts{Model: core.Model{Pitch: pitch}, Rat: true})
		if err != nil {
			t.Fatalf("circuit %d (%d nets, %dx%d grid): %v", i, r.Nets, r.Cols, r.Rows, err)
		}
	}
}

// TestDifferentialExactModel compares under Model.Exact (no Theorem 1
// anywhere): every cell must match to round-off.
func TestDifferentialExactModel(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 30
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < n; i++ {
		pitch := 30.0
		chip := RandomChip(rng, pitch)
		nets := RandomNets(rng, chip, 1+rng.Intn(30), pitch)
		r, err := Compare(chip, nets, Opts{Model: core.Model{Pitch: pitch, Exact: true}})
		if err != nil {
			t.Fatalf("circuit %d: %v", i, err)
		}
		if r.ApproxCells != 0 {
			t.Fatalf("circuit %d: exact model flagged %d approx cells", i, r.ApproxCells)
		}
	}
}

// TestDifferentialForcedSimpson forces the Theorem 1 quadrature onto
// every multi-cell edge (ExactSpanLimit < 0), exercising the Simpson
// machinery far more often than the default policy would.
func TestDifferentialForcedSimpson(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 30
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < n; i++ {
		pitch := 30.0
		chip := RandomChip(rng, pitch)
		nets := RandomNets(rng, chip, 1+rng.Intn(30), pitch)
		m := core.Model{Pitch: pitch, ExactSpanLimit: -1}
		r, err := Compare(chip, nets, Opts{Model: m})
		if err != nil {
			t.Fatalf("circuit %d (%d nets, %dx%d grid): %v", i, r.Nets, r.Cols, r.Rows, err)
		}
	}
}

// TestDifferentialNoMerge covers the merge-rule ablation: the oracle
// must reproduce the engine's unmerged cutting-line geometry too.
func TestDifferentialNoMerge(t *testing.T) {
	n := 100
	if testing.Short() {
		n = 15
	}
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < n; i++ {
		pitch := 30.0
		chip := RandomChip(rng, pitch)
		nets := RandomNets(rng, chip, 1+rng.Intn(20), pitch)
		if _, err := Compare(chip, nets, Opts{Model: core.Model{Pitch: pitch, NoMerge: true}}); err != nil {
			t.Fatalf("circuit %d: %v", i, err)
		}
	}
}

// mcncErrPins hold the measured maximum per-cell |oracle − engine| for
// each MCNC benchmark's initial-expression placement, rounded up one
// decimal step. Under the default evaluation policy these placements
// never reach the Simpson path (no merged edge spans 32 unit cells),
// so the default pin is a pure round-off envelope; the forcedSimpson
// pin runs the same circuits with ExactSpanLimit = -1 so the Theorem 1
// quadrature covers every multi-cell edge. A future change that widens
// either envelope fails TestDifferentialMCNC even while staying inside
// the coarse oracle.SimpsonEps budget.
var mcncErrPins = map[string]struct{ exact, forcedSimpson float64 }{
	"apte":  {1e-11, 0.08}, // measured 6.8e-13, 0.0780
	"xerox": {1e-11, 0.06}, // measured 2.9e-12, 0.0537
	"hp":    {1e-11, 0.07}, // measured 6.5e-13, 0.0633
	"ami33": {1e-11, 0.05}, // measured 2.5e-13, 0.0475
	"ami49": {1e-11, 0.09}, // measured 7.6e-12, 0.0856
}

// TestDifferentialMCNC runs the full differential comparison on all
// five MCNC benchmark placements, sequential and parallel, under the
// default policy and with the quadrature forced on, and pins the
// measured error envelope per benchmark.
func TestDifferentialMCNC(t *testing.T) {
	for _, name := range bench.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			chip, nets, err := BenchCase(name)
			if err != nil {
				t.Fatal(err)
			}
			pins := mcncErrPins[name]

			r, err := Compare(chip, nets, Opts{
				Model: core.Model{Pitch: BenchPitch(name)},
			})
			if err != nil {
				t.Fatalf("%s (%d nets, %dx%d grid): %v", name, r.Nets, r.Cols, r.Rows, err)
			}
			t.Logf("%s: %d nets, %dx%d grid, %d exact / %d approx cells, maxExactErr=%.3g maxApproxErr=%.3g scoreErr=%.3g",
				name, r.Nets, r.Cols, r.Rows, r.ExactCells, r.ApproxCells,
				r.MaxExactErr, r.MaxApproxErr, r.ScoreErr)
			if r.MaxExactErr > pins.exact {
				t.Errorf("%s: default-policy round-off error %.4g exceeds pinned envelope %.4g",
					name, r.MaxExactErr, pins.exact)
			}

			fs, err := Compare(chip, nets, Opts{
				Model: core.Model{Pitch: BenchPitch(name), ExactSpanLimit: -1},
			})
			if err != nil {
				t.Fatalf("%s forced Simpson: %v", name, err)
			}
			t.Logf("%s forced Simpson: %d approx cells, maxApproxErrPerNet=%.4g",
				name, fs.ApproxCells, fs.MaxApproxErrPerNet)
			if fs.ApproxCells == 0 {
				t.Errorf("%s forced Simpson: quadrature never exercised", name)
			}
			if fs.MaxApproxErrPerNet > pins.forcedSimpson {
				t.Errorf("%s: measured per-contribution Simpson error %.4g exceeds pinned envelope %.4g — "+
					"if the quadrature intentionally changed, re-measure and update mcncErrPins",
					name, fs.MaxApproxErrPerNet, pins.forcedSimpson)
			}
		})
	}
}
