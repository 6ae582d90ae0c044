// Package diff is the differential harness between the oracle's naive
// reference pipeline (internal/oracle) and the production engine
// (internal/core): it generates random circuits or MCNC benchmark
// placements, evaluates both sides, and checks that the IR-grid
// geometry matches exactly and every per-grid probability lands within
// its documented error budget — oracle.ExactEps for cells the engine
// sums exactly, plus oracle.SimpsonEps per net contribution the engine
// scores with the Theorem 1 quadrature. CompareMoves also replays SA
// move sequences through the incremental engine and demands maps
// bit-identical to from-scratch evaluation.
package diff

import (
	"fmt"
	"math"
	"math/rand"

	"irgrid/internal/bench"
	"irgrid/internal/core"
	"irgrid/internal/fplan"
	"irgrid/internal/geom"
	"irgrid/internal/netlist"
	"irgrid/internal/oracle"
	"irgrid/internal/slicing"
)

// Opts configures one comparison.
type Opts struct {
	// Model is the engine configuration under test. Pitch must be set.
	Model core.Model
	// Rat evaluates the oracle side in big-rational arithmetic. Exact
	// but slow; keep circuits small.
	Rat bool
	// ExactEps is the per-cell budget when no contribution was
	// approximated; zero means oracle.ExactEps.
	ExactEps float64
	// SimpsonEps is the additional per-cell budget per Simpson-scored
	// net contribution; zero means oracle.SimpsonEps.
	SimpsonEps float64
}

func (o Opts) exactEps() float64 {
	if o.ExactEps == 0 {
		return oracle.ExactEps
	}
	return o.ExactEps
}

func (o Opts) simpsonEps() float64 {
	if o.SimpsonEps == 0 {
		return oracle.SimpsonEps
	}
	return o.SimpsonEps
}

// Result summarizes one comparison. It is populated as far as the
// comparison got even when Compare also returns an error.
type Result struct {
	Nets         int     `json:"nets"`
	Cols         int     `json:"cols"`
	Rows         int     `json:"rows"`
	ExactCells   int     `json:"exact_cells"`    // cells with no approximated contribution
	ApproxCells  int     `json:"approx_cells"`   // cells with ≥1 Simpson-scored contribution
	MaxExactErr  float64 `json:"max_exact_err"`  // worst |Δ| over exact cells
	MaxApproxErr float64 `json:"max_approx_err"` // worst |Δ| over approx cells
	// MaxApproxErrPerNet is the worst |Δ| divided by the cell's number
	// of Simpson-scored contributions — the per-contribution
	// approximation error the oracle.SimpsonEps budget bounds.
	MaxApproxErrPerNet float64 `json:"max_approx_err_per_net"`
	ScoreErr           float64 `json:"score_err"` // |engine − oracle| top-fraction score
}

// Compare evaluates chip/nets with the oracle and the engine and
// checks geometry, per-cell budgets and the top-score machinery. The returned Result carries the measured error
// envelope; a non-nil error describes the first violation.
func Compare(chip geom.Rect, nets []netlist.TwoPin, o Opts) (*Result, error) {
	cfg := oracle.Config{
		Pitch:          o.Model.Pitch,
		TopFraction:    o.Model.TopFraction,
		Exact:          o.Model.Exact,
		NoMerge:        o.Model.NoMerge,
		ExactSpanLimit: o.Model.ExactSpanLimit,
		Rat:            o.Rat,
	}
	ref := cfg.Evaluate(chip, nets)
	res := &Result{Nets: len(nets), Cols: ref.Cols(), Rows: ref.Rows()}

	base := o.Model.Evaluate(chip, nets)

	// Geometry: same cutting lines, exactly.
	if err := sameAxes(ref, base); err != nil {
		return res, err
	}

	// Per-cell probabilities within budget.
	exactEps, simpsonEps := o.exactEps(), o.simpsonEps()
	var firstViolation error
	for iy := 0; iy < ref.Rows(); iy++ {
		for ix := 0; ix < ref.Cols(); ix++ {
			d := math.Abs(ref.Prob[iy][ix] - base.At(ix, iy))
			n := ref.ApproxNets[iy][ix]
			if n == 0 {
				res.ExactCells++
				res.MaxExactErr = math.Max(res.MaxExactErr, d)
			} else {
				res.ApproxCells++
				res.MaxApproxErr = math.Max(res.MaxApproxErr, d)
				res.MaxApproxErrPerNet = math.Max(res.MaxApproxErrPerNet, d/float64(n))
			}
			budget := exactEps + simpsonEps*float64(n)
			if d > budget && firstViolation == nil {
				firstViolation = fmt.Errorf(
					"cell (%d,%d): |oracle %.12g − engine %.12g| = %.3g exceeds budget %.3g (%d approximated contributions)",
					ix, iy, ref.Prob[iy][ix], base.At(ix, iy), d, budget, n)
			}
		}
	}
	if firstViolation != nil {
		return res, firstViolation
	}

	// Top-score machinery in isolation: feed the engine's own
	// probabilities through the oracle's full-sort scorer; quickselect
	// must agree to round-off regardless of any probability error.
	frac := o.Model.TopFraction
	if frac <= 0 {
		frac = 0.10
	}
	engineScore := base.TopScore(frac)
	om := &oracle.Map{Chip: chip, X: ref.X, Y: ref.Y, Prob: make([][]float64, ref.Rows())}
	for iy := range om.Prob {
		om.Prob[iy] = make([]float64, ref.Cols())
		for ix := range om.Prob[iy] {
			om.Prob[iy][ix] = base.At(ix, iy)
		}
	}
	if d := math.Abs(om.TopScore(frac) - engineScore); d > 1e-9 {
		return res, fmt.Errorf("top-score quickselect diverges from full sort by %g on identical densities", d)
	}

	res.ScoreErr = math.Abs(ref.TopScore(frac) - engineScore)
	if res.ApproxCells == 0 && res.ScoreErr > 1e-6 {
		return res, fmt.Errorf("score |oracle − engine| = %g with no approximated cells", res.ScoreErr)
	}
	return res, nil
}

// bitIdentical reports whether two engine maps are exactly equal.
func bitIdentical(a, b *core.Map) error {
	if a.Cols() != b.Cols() || a.Rows() != b.Rows() {
		return fmt.Errorf("grid %dx%d vs %dx%d", a.Cols(), a.Rows(), b.Cols(), b.Rows())
	}
	for iy := 0; iy < a.Rows(); iy++ {
		for ix := 0; ix < a.Cols(); ix++ {
			if a.At(ix, iy) != b.At(ix, iy) {
				return fmt.Errorf("cell (%d,%d): %.17g vs %.17g", ix, iy, a.At(ix, iy), b.At(ix, iy))
			}
		}
	}
	return nil
}

// sameAxes checks the oracle and engine built identical cutting lines.
func sameAxes(ref *oracle.Map, got *core.Map) error {
	if len(ref.X) != len(got.XAxis) || len(ref.Y) != len(got.YAxis) {
		return fmt.Errorf("axes %dx%d lines vs engine %dx%d",
			len(ref.X), len(ref.Y), len(got.XAxis), len(got.YAxis))
	}
	for i, v := range ref.X {
		if v != got.XAxis[i] {
			return fmt.Errorf("x line %d: oracle %.17g vs engine %.17g", i, v, got.XAxis[i])
		}
	}
	for i, v := range ref.Y {
		if v != got.YAxis[i] {
			return fmt.Errorf("y line %d: oracle %.17g vs engine %.17g", i, v, got.YAxis[i])
		}
	}
	return nil
}

// RandomChip returns a chip whose extent is a few to a few dozen
// pitches per side, sometimes deliberately off the pitch lattice.
func RandomChip(rng *rand.Rand, pitch float64) geom.Rect {
	w := pitch * (4 + float64(rng.Intn(36)))
	h := pitch * (4 + float64(rng.Intn(36)))
	if rng.Intn(4) == 0 {
		w += pitch * rng.Float64() // fractional extent
		h += pitch * rng.Float64()
	}
	return geom.Rect{X1: 0, Y1: 0, X2: w, Y2: h}
}

// RandomNets generates n two-pin nets inside chip with a deliberate
// mix of adversarial shapes: generic pins, pitch-snapped pins
// (coincident cutting lines), degenerate point and line nets, and pin
// pairs closer than the 2×pitch merge threshold.
func RandomNets(rng *rand.Rand, chip geom.Rect, n int, pitch float64) []netlist.TwoPin {
	pt := func() geom.Pt {
		return geom.Pt{
			X: chip.X1 + rng.Float64()*chip.W(),
			Y: chip.Y1 + rng.Float64()*chip.H(),
		}
	}
	snapPt := func() geom.Pt {
		return geom.Pt{
			X: chip.X1 + pitch*math.Floor(rng.Float64()*chip.W()/pitch),
			Y: chip.Y1 + pitch*math.Floor(rng.Float64()*chip.H()/pitch),
		}
	}
	nets := make([]netlist.TwoPin, 0, n)
	for i := 0; i < n; i++ {
		var tp netlist.TwoPin
		switch r := rng.Intn(20); {
		case r < 12: // generic
			tp = netlist.TwoPin{A: pt(), B: pt()}
		case r < 15: // snapped to the pitch lattice
			tp = netlist.TwoPin{A: snapPt(), B: snapPt()}
		case r == 15: // coincident pins (point net)
			p := pt()
			tp = netlist.TwoPin{A: p, B: p}
		case r == 16: // horizontal line
			a := pt()
			tp = netlist.TwoPin{A: a, B: geom.Pt{X: chip.X1 + rng.Float64()*chip.W(), Y: a.Y}}
		case r == 17: // vertical line
			a := pt()
			tp = netlist.TwoPin{A: a, B: geom.Pt{X: a.X, Y: chip.Y1 + rng.Float64()*chip.H()}}
		default: // pins closer than the 2×pitch merge threshold
			a := pt()
			b := geom.Pt{
				X: math.Min(a.X+rng.Float64()*2*pitch, chip.X2),
				Y: math.Min(a.Y+rng.Float64()*2*pitch, chip.Y2),
			}
			tp = netlist.TwoPin{A: a, B: b}
		}
		nets = append(nets, tp)
	}
	return nets
}

// BenchPitch returns the paper's pitch for an MCNC benchmark: 60 µm
// for apte, 30 µm otherwise.
func BenchPitch(name string) float64 {
	if name == "apte" {
		return 60
	}
	return 30
}

// BenchCase deterministically derives a chip and a snapped
// MST-decomposed two-pin net set for an MCNC benchmark by packing the
// initial slicing expression — no annealing, so the case is stable
// across runs and machines.
func BenchCase(name string) (geom.Rect, []netlist.TwoPin, error) {
	c, err := bench.Load(name)
	if err != nil {
		return geom.Rect{}, nil, err
	}
	r, err := fplan.New(c, fplan.Config{
		Weights: fplan.Weights{Alpha: 1},
		Pitch:   BenchPitch(name),
	})
	if err != nil {
		return geom.Rect{}, nil, err
	}
	sol := r.Evaluate(slicing.Initial(len(c.Modules)))
	return sol.Placement.Chip, sol.Nets, nil
}
