// Package congestion exposes the library's probabilistic congestion
// estimators standalone, decoupled from the floorplanner: given a chip
// outline and a set of two-pin nets (pins already placed), it computes
// congestion maps and chip-level scores under either the classic
// fixed-size-grid model or the paper's Irregular-Grid model.
//
// Use package floorplan when starting from a circuit netlist; use this
// package when the pin positions come from elsewhere (an external
// placer, a trace, a hand-built example).
package congestion

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"irgrid/internal/core"
	"irgrid/internal/geom"
	"irgrid/internal/grid"
	"irgrid/internal/netlist"
	"irgrid/telemetry"
)

// ErrInvalidInput reports chip dimensions, pitches or net coordinates
// that cannot parameterize any estimate (non-positive chip, non-finite
// values, pins outside the chip). Test with errors.Is.
var ErrInvalidInput = errors.New("congestion: invalid input")

// Net is a two-pin net given by its pin coordinates in µm. Multi-bend
// shortest Manhattan routing is assumed: the routing range is the
// bounding box of the two pins.
type Net struct {
	X1, Y1, X2, Y2 float64
}

// Options parameterizes an estimate.
type Options struct {
	// Pitch is the grid pitch in µm: the cell size of the fixed model,
	// or the Irregular-Grid base pitch (unit lattice + line-merge
	// threshold). Zero defaults to 30.
	Pitch float64
	// Exact uses exact Formula 3 sums in the IR model instead of the
	// Theorem 1 approximation. Ignored by the fixed model.
	Exact bool
	// BendLimited switches EstimateFixed to the L/Z-route variant:
	// only 1- and 2-bend shortest routes are considered instead of all
	// monotone routes. Ignored by the IR model.
	BendLimited bool
	// TopFraction is the most-congested fraction averaged into Score
	// (default 0.10).
	TopFraction float64
	// Workers is ignored: IR evaluation is single-threaded. The field
	// is kept so that callers which still set it compile.
	//
	// Deprecated: has no effect; it will be removed.
	Workers int
	// Obs, when non-nil, receives the IR evaluation engine's metrics
	// (stage timings, Simpson-memo hit/miss counters, grid dimensions).
	// Telemetry never changes results. Ignored by the fixed model.
	Obs *telemetry.Registry
	// Spans, when non-nil, collects the IR engine's hierarchical stage
	// timings (evaluate/{merge,sweep,fold} and evaluate/topscore).
	// Spans never change results. Ignored by the fixed model.
	Spans *telemetry.Spans
}

func (o Options) pitch() float64 {
	if o.Pitch <= 0 {
		return 30
	}
	return o.Pitch
}

// Map is an evaluated congestion map.
type Map struct {
	// Model names the estimator that produced the map.
	Model string
	// XLines and YLines are the cell boundaries.
	XLines, YLines []float64
	// Density[row][col] is probability mass per µm² in the cell.
	Density [][]float64
	// Score is the chip-level congestion cost.
	Score float64
	// Cells is the number of evaluation cells.
	Cells int
}

// topMean averages the largest ceil(frac·N) values.
func topMean(xs []float64, frac float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	k := int(math.Ceil(frac * float64(len(xs))))
	if k < 1 {
		k = 1
	}
	if k > len(xs) {
		k = len(xs)
	}
	var sum float64
	for _, v := range xs[len(xs)-k:] {
		sum += v
	}
	return sum / float64(k)
}

// MaxDensity returns the largest cell density.
func (m *Map) MaxDensity() float64 {
	var mx float64
	for _, row := range m.Density {
		for _, v := range row {
			if v > mx {
				mx = v
			}
		}
	}
	return mx
}

// CellAt returns the indices of the cell containing (x, y), or ok =
// false outside the map.
func (m *Map) CellAt(x, y float64) (col, row int, ok bool) {
	col = sort.SearchFloat64s(m.XLines, x) - 1
	row = sort.SearchFloat64s(m.YLines, y) - 1
	if col < 0 || row < 0 || col >= len(m.XLines)-1 || row >= len(m.YLines)-1 {
		return 0, 0, false
	}
	return col, row, true
}

func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

func toInternal(chipW, chipH float64, nets []Net, opts Options) (geom.Rect, []netlist.TwoPin, error) {
	if !finite(chipW, chipH) || chipW <= 0 || chipH <= 0 {
		return geom.Rect{}, nil, fmt.Errorf("%w: chip %gx%g must be positive and finite", ErrInvalidInput, chipW, chipH)
	}
	if !finite(opts.Pitch) || opts.Pitch < 0 {
		return geom.Rect{}, nil, fmt.Errorf("%w: pitch %g must be non-negative and finite (zero selects the default)", ErrInvalidInput, opts.Pitch)
	}
	if !finite(opts.TopFraction) || opts.TopFraction < 0 || opts.TopFraction > 1 {
		return geom.Rect{}, nil, fmt.Errorf("%w: top fraction %g must be in [0, 1]", ErrInvalidInput, opts.TopFraction)
	}
	chip := geom.Rect{X1: 0, Y1: 0, X2: chipW, Y2: chipH}
	out := make([]netlist.TwoPin, 0, len(nets))
	for i, n := range nets {
		if !finite(n.X1, n.Y1, n.X2, n.Y2) {
			return geom.Rect{}, nil, fmt.Errorf("%w: net %d has non-finite pin coordinates", ErrInvalidInput, i)
		}
		a := geom.Pt{X: n.X1, Y: n.Y1}
		b := geom.Pt{X: n.X2, Y: n.Y2}
		if !chip.Contains(a) || !chip.Contains(b) {
			return geom.Rect{}, nil, fmt.Errorf("%w: net %d pins outside the %gx%g chip", ErrInvalidInput, i, chipW, chipH)
		}
		out = append(out, netlist.TwoPin{A: a, B: b})
	}
	return chip, out, nil
}

// EstimateIR evaluates the Irregular-Grid model on the nets over a
// chipW×chipH chip anchored at the origin.
func EstimateIR(chipW, chipH float64, nets []Net, opts Options) (*Map, error) {
	return EstimateIRContext(context.Background(), chipW, chipH, nets, opts)
}

// EstimateIRContext is EstimateIR under a context: the evaluation
// engine checks the context every 64 nets, and a canceled
// estimate returns the context's error (context.Canceled or
// context.DeadlineExceeded) instead of a partial map.
func EstimateIRContext(ctx context.Context, chipW, chipH float64, nets []Net, opts Options) (*Map, error) {
	chip, two, err := toInternal(chipW, chipH, nets, opts)
	if err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	m := core.Model{Pitch: opts.pitch(), Exact: opts.Exact, TopFraction: opts.TopFraction, Obs: opts.Obs, Spans: opts.Spans}
	if ctx.Done() != nil {
		m.Ctx = ctx
	}
	mp := m.Evaluate(chip, two)
	// A cancellation mid-evaluation leaves mp partial; report the
	// cancellation rather than a wrong map.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := &Map{
		Model:  m.Name(),
		XLines: append([]float64(nil), mp.XAxis...),
		YLines: append([]float64(nil), mp.YAxis...),
		Cells:  mp.GridCount(),
	}
	frac := opts.TopFraction
	if frac <= 0 {
		frac = 0.10
	}
	out.Score = mp.TopScore(frac)
	out.Density = make([][]float64, mp.Rows())
	for iy := 0; iy < mp.Rows(); iy++ {
		out.Density[iy] = make([]float64, mp.Cols())
		for ix := 0; ix < mp.Cols(); ix++ {
			out.Density[iy][ix] = mp.Density(ix, iy)
		}
	}
	return out, nil
}

// EstimateFixed evaluates the fixed-size-grid model (the baseline the
// paper compares against, and — at Pitch 10 — its judging model).
func EstimateFixed(chipW, chipH float64, nets []Net, opts Options) (*Map, error) {
	chip, two, err := toInternal(chipW, chipH, nets, opts)
	if err != nil {
		return nil, err
	}
	pitch := opts.pitch()
	var mp *grid.Map
	var name string
	if opts.BendLimited {
		m := grid.LZModel{Pitch: pitch, TopFraction: opts.TopFraction}
		mp = m.Evaluate(chip, two)
		name = m.Name()
	} else {
		m := grid.Model{Pitch: pitch, TopFraction: opts.TopFraction}
		mp = m.Evaluate(chip, two)
		name = m.Name()
	}
	out := &Map{
		Model: name,
		Cells: mp.Cols * mp.Rows,
	}
	frac := opts.TopFraction
	if frac <= 0 {
		frac = 0.10
	}
	out.Score = mp.TopScore(frac)
	for i := 0; i <= mp.Cols; i++ {
		out.XLines = append(out.XLines, float64(i)*pitch)
	}
	for i := 0; i <= mp.Rows; i++ {
		out.YLines = append(out.YLines, float64(i)*pitch)
	}
	cellArea := pitch * pitch
	out.Density = make([][]float64, mp.Rows)
	for iy := 0; iy < mp.Rows; iy++ {
		out.Density[iy] = make([]float64, mp.Cols)
		for ix := 0; ix < mp.Cols; ix++ {
			out.Density[iy][ix] = mp.At(ix, iy) / cellArea
		}
	}
	return out, nil
}

// CrossProbabilityExact returns the exact probability (Formula 3) that
// a type I two-pin net on a g1×g2 unit lattice crosses the cell
// rectangle [x1..x2]×[y1..y2]; cells covering a pin return 1. It is
// exposed for studying the model itself (Figure 6/8 style analyses).
func CrossProbabilityExact(g1, g2, x1, x2, y1, y2 int) float64 {
	return core.ExactCrossProb(g1, g2, x1, x2, y1, y2)
}

// CrossProbabilityApprox is the Theorem 1 approximation of
// CrossProbabilityExact (simpsonN <= 0 selects the default).
func CrossProbabilityApprox(g1, g2, x1, x2, y1, y2, simpsonN int) float64 {
	return core.ApproxCrossProb(g1, g2, x1, x2, y1, y2, simpsonN)
}
