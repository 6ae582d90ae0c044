package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// minBeyond is the number of samples that must lie above a reported
// percentile: a tail figure backed by fewer samples is noise.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs and
// ok=false when fewer than minBeyond samples lie beyond it. xs need not
// be sorted; it is not modified.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 || p <= 0 || p >= 1 {
		return 0, false
	}
	rank := int(math.Ceil(p*float64(n) - 1e-9)) // 1-based nearest rank
	if n-rank < minBeyond {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], true
}

// latency is a timing distribution reported as a median and a p95,
// with the number of samples behind them.
type latency struct {
	N        int
	P50, P95 float64
}

// summarize reduces timing samples to a latency. It fails when the
// p95 would rest on fewer than minBeyond samples.
func summarize(xs []float64) (latency, error) {
	p95, ok := percentile(xs, 0.95)
	if !ok {
		return latency{}, fmt.Errorf("%d samples cannot support a p95 (need %d beyond it)", len(xs), minBeyond)
	}
	return latency{N: len(xs), P50: median(xs), P95: p95}, nil
}

// median returns the middle value of xs (the mean of the two middle
// values for even lengths); 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread is the interquartile range of xs as a share of its median,
// with quartiles taken like Python's statistics.quantiles(xs, n=4)
// (the "exclusive" method). It needs at least two samples.
func spread(xs []float64) float64 {
	n := len(xs)
	m := median(xs)
	if n < 2 || m == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 { // k-th quartile, exclusive method
		pos := float64(k*(n+1)) / 4
		j := int(pos)
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return (q(3) - q(1)) / math.Abs(m)
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validName reports whether s is a legal metric or workload name: at
// most 64 of [A-Za-z0-9_.-], starting with a letter or digit.
func validName(s string) bool { return nameRE.MatchString(s) }

// unattributedShare is the part of a whole not covered by its measured
// parts: 1 - Σparts/whole. The parts add up exactly when it is 0; a
// negative value means the parts overlap or were over-measured.
func unattributedShare(whole float64, parts ...float64) float64 {
	if whole <= 0 {
		return 0
	}
	var sum float64
	for _, p := range parts {
		sum += p
	}
	return 1 - sum/whole
}
