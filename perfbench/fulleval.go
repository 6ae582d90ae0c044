package main

import (
	"time"

	"irgrid/congestion"
	"irgrid/internal/core"
	"irgrid/internal/fplan"
	"irgrid/internal/geom"
	"irgrid/internal/netlist"
	"irgrid/internal/obs"
)

// placement is one floorplan's placed 2-pin nets, anchored at the
// origin, in both the public facade's and the core layer's form.
type placement struct {
	name string
	chip geom.Rect
	nets []congestion.Net
	two  []netlist.TwoPin
}

func placementOf(name string, sol *fplan.Solution) placement {
	ch := sol.Placement.Chip
	p := placement{name: name, chip: geom.Rect{X2: ch.W(), Y2: ch.H()}}
	for _, n := range sol.Nets {
		a := geom.Pt{X: n.A.X - ch.X1, Y: n.A.Y - ch.Y1}
		b := geom.Pt{X: n.B.X - ch.X1, Y: n.B.Y - ch.Y1}
		p.nets = append(p.nets, congestion.Net{X1: a.X, Y1: a.Y, X2: b.X, Y2: b.Y})
		p.two = append(p.two, netlist.TwoPin{A: a, B: b})
	}
	return p
}

// simpsonSpan is the exact-span limit of the Simpson-memo phase. At
// the default limit (32 unit cells) no edge of an ami33 floorplan at
// pitch 30 takes the Simpson path, so the memo would see no lookups.
const simpsonSpan = -1

const (
	hitsName = "eval_simpson_memo_hits_total"
	missName = "eval_simpson_memo_misses_total"
)

// fullEvalLayers times the from-scratch evaluation layers on the
// placements for about the given seconds (at least two rounds), in
// rounds of block operations per phase, one operation evaluating every
// placement: the facade (congestion.EstimateIR) interleaved with the
// sharded core.Model.Evaluate and Map.TopScore it wraps; then one
// untimed operation on a fresh core.Evaluator with an Obs registry and
// the exact-span limit at simpsonSpan, for the Simpson memo's counters;
// then Evaluate with one worker. Phases with another model
// configuration run in blocks because the pooled engine drops its
// Simpson memo whenever the configuration changes.
func fullEvalLayers(seconds float64, ps []placement, rep *report) error {
	const block = 8
	reg := obs.NewRegistry()
	var eval, top, rest, seq []float64
	var rounds [][2]int64 // Simpson memo hits and misses per round
	cells := 0
	w := newWindow(seconds)
	for w.next(2) {
		// The facade and the layers it calls share one model
		// configuration, so they interleave operation by operation.
		for i := 0; i < block; i++ {
			var tf, te, tt time.Duration
			cells = 0
			for _, p := range ps {
				t0 := time.Now()
				if _, err := congestion.EstimateIR(p.chip.W(), p.chip.H(), p.nets, congestion.Options{Pitch: pitch}); err != nil {
					return err
				}
				t1 := time.Now()
				mp := core.Model{Pitch: pitch}.Evaluate(p.chip, p.two)
				t2 := time.Now()
				mp.TopScore(0.10)
				t3 := time.Now()
				tf += t1.Sub(t0)
				te += t2.Sub(t1)
				tt += t3.Sub(t2)
				cells += mp.GridCount()
			}
			eval = append(eval, float64(te)/1e6)
			top = append(top, float64(tt)/1e6)
			rest = append(rest, float64(tf-te-tt)/1e6)
		}
		// A fresh single-worker Evaluator starts from a cold memo, so
		// its counters are the memo's hits within one evaluation of
		// the placements.
		h0, m0 := reg.Counter(hitsName).Value(), reg.Counter(missName).Value()
		ev := core.Model{Pitch: pitch, ExactSpanLimit: simpsonSpan, Workers: 1, Obs: reg}.NewEvaluator()
		for _, p := range ps {
			ev.Evaluate(p.chip, p.two)
		}
		rounds = append(rounds, [2]int64{reg.Counter(hitsName).Value() - h0, reg.Counter(missName).Value() - m0})
		for i := 0; i < block; i++ {
			t := time.Now()
			for _, p := range ps {
				core.Model{Pitch: pitch, Workers: 1}.Evaluate(p.chip, p.two)
			}
			seq = append(seq, float64(time.Since(t))/1e6)
		}
		rep.attempted += 2*block + 1
	}
	for _, r := range rounds {
		rep.check(r == rounds[0], "Simpson memo counts %v differ from the first round's %v", r, rounds[0])
	}
	hits, miss := float64(rounds[0][0]), float64(rounds[0][1])
	for _, p := range ps {
		m, err := congestion.EstimateIR(p.chip.W(), p.chip.H(), p.nets, congestion.Options{Pitch: pitch})
		if err != nil {
			return err
		}
		s := core.Model{Pitch: pitch}.Evaluate(p.chip, p.two).TopScore(0.10)
		rep.check(s == m.Score, "%s: core.Model.Evaluate+TopScore %v disagrees with EstimateIR %v", p.name, s, m.Score)
	}
	rep.add("core.evaluate_ms", median(eval), "ms")
	rep.add("core.evaluate_seq_ms", median(seq), "ms")
	rep.add("core.parallel_speedup", median(seq)/median(eval), "x")
	rep.add("core.topscore_ms", median(top), "ms")
	rep.add("congestion.facade_ms", median(rest), "ms")
	rep.add("core.grid_cells", float64(cells), "count")
	rep.add("core.simpson_memo_hit_ratio", ratio(hits, hits+miss), "ratio")
	rep.note("full evaluation of %d final placements: %d operations per phase; Simpson memo (exact-span limit %d) %v hits, %v misses in each of %d rounds",
		len(ps), len(eval), simpsonSpan, hits, miss, len(rounds))
	return nil
}
