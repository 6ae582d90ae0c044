package main

import (
	"fmt"
	"runtime"
	"time"
)

// window paces a run's rounds over the measuring window. A round is
// one whole cycle of a workload's inputs, so every input is measured
// the same number of times.
type window struct {
	start, prev time.Time
	length      time.Duration
	last        time.Duration // duration of the latest round
	n           int
}

func newWindow(seconds float64) *window {
	now := time.Now()
	return &window{start: now, prev: now, length: time.Duration(seconds * float64(time.Second))}
}

// next reports whether to start another round: always for the first
// min, then only while one more, judged by the latest, still ends
// inside the window.
func (w *window) next(min int) bool {
	now := time.Now()
	if w.n > 0 {
		w.last = now.Sub(w.prev)
	}
	w.prev = now
	w.n++
	return w.n <= min || now.Sub(w.start)+w.last <= w.length
}

// subSeed derives the i-th input seed of a run from its --seed, so one
// run averages over several inputs.
func subSeed(seed int64, i int) int64 { return seed*100 + int64(i) }

// section brackets one timed section: a forced GC before it, so no
// earlier garbage is collected on its clock, and MemStats deltas over
// it.
type section struct {
	t0 time.Time
	m0 runtime.MemStats
}

func begin() *section {
	s := &section{}
	runtime.GC()
	runtime.ReadMemStats(&s.m0)
	s.t0 = time.Now()
	return s
}

// settle forces a GC before a set-up is timed, so the garbage of the
// previous repetition is not collected on the set-up's clock.
func settle() time.Time {
	runtime.GC()
	return time.Now()
}

// sample is one repetition of a workload's fixed unit of work.
type sample struct {
	wall    float64 // seconds of the timed section
	ops     int
	mallocs uint64
	bytes   uint64
	live    uint64 // HeapAlloc after a forced GC, workload state still live
	key     int64  // the input seed; repetitions with one key repeat exactly
	cost    float64
	setup   float64   // seconds of the set-up before the timed section
	lat     []float64 // ms, one per operation
}

// end closes the section. The caller keeps the workload's state
// reachable until end returns, so live measures the working set.
func (s *section) end(ops int, key int64, cost float64) sample {
	wall := time.Since(s.t0).Seconds()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	out := sample{wall: wall, ops: ops, key: key, cost: cost,
		mallocs: m.Mallocs - s.m0.Mallocs, bytes: m.TotalAlloc - s.m0.TotalAlloc}
	// Two collections: sync.Pool caches survive the first.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	out.live = m.HeapAlloc
	return out
}

// endToEnd adds the end-to-end metrics of a plain run. Every figure
// is computed per input — the median of the input's repetitions, or a
// percentile of its pooled latency samples (ms) — and then averaged
// over the run's inputs, so which inputs a run covers does not depend
// on how fast the host was. It checks that repetitions of one input
// reached the same final cost.
func endToEnd(rep *report, reps []sample, what string) error {
	if len(reps) == 0 {
		return fmt.Errorf("no repetitions completed")
	}
	byKey := map[int64][]sample{}
	var keys []int64
	var rate, setup []float64
	for _, s := range reps {
		if prev, ok := byKey[s.key]; ok {
			rep.check(s.cost == prev[0].cost, "input %d: final cost %v differs from its first repetition's %v", s.key, s.cost, prev[0].cost)
		} else {
			keys = append(keys, s.key)
		}
		byKey[s.key] = append(byKey[s.key], s)
		rate = append(rate, float64(s.ops)/s.wall)
		setup = append(setup, s.setup)
	}
	nLat := 0
	lats := map[int64]latency{}
	for _, k := range keys {
		var xs []float64
		for _, s := range byKey[k] {
			xs = append(xs, s.lat...)
		}
		l, err := summarize(xs)
		if err != nil {
			return fmt.Errorf("input %d: %v", k, err)
		}
		lats[k] = l
		nLat += l.N
	}
	// perInput averages f over the inputs, each the median of its
	// repetitions.
	perInput := func(f func(s sample) float64) float64 {
		var sum float64
		for _, k := range keys {
			var xs []float64
			for _, s := range byKey[k] {
				xs = append(xs, f(s))
			}
			sum += median(xs)
		}
		return sum / float64(len(keys))
	}
	meanLat := func(f func(l latency) float64) float64 {
		var sum float64
		for _, k := range keys {
			sum += f(lats[k])
		}
		return sum / float64(len(keys))
	}
	rep.add("setup_s", perInput(func(s sample) float64 { return s.setup }), "s")
	rep.add("ops_per_s", perInput(func(s sample) float64 { return float64(s.ops) / s.wall }), "1/s")
	rep.add("final_cost", perInput(func(s sample) float64 { return s.cost }), "cost")
	rep.add("latency_ms_p50", meanLat(func(l latency) float64 { return l.P50 }), "ms")
	rep.add("latency_ms_p95", meanLat(func(l latency) float64 { return l.P95 }), "ms")
	rep.add("allocs_per_op", perInput(func(s sample) float64 { return float64(s.mallocs) / float64(s.ops) }), "count")
	rep.add("alloc_mib_per_op", perInput(func(s sample) float64 { return float64(s.bytes) / float64(s.ops) / (1 << 20) }), "MiB")
	rep.add("live_heap_mib", perInput(func(s sample) float64 { return float64(s.live) / (1 << 20) }), "MiB")
	rep.note("ops are %s; %d repetitions (%d per input) of %d ops over inputs %v; latency over %d samples",
		what, len(reps), len(reps)/len(keys), reps[0].ops, keys, nLat)
	rep.note("ops_per_s per repetition %.4g (IQR/median %.1f%%)", rate, 100*spread(rate))
	rep.note("setup_s per repetition %.4g (IQR/median %.1f%%)", setup, 100*spread(setup))
	return nil
}
