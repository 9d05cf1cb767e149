package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the tail rule every reported percentile obeys: a
// percentile is only reported when at least this many samples lie
// beyond it, so a p99 needs 1000 samples and a p90 needs 100.
const minBeyond = 10

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between the closest ranks. xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailQuantile caps a requested upper quantile q by the tail rule: with
// n samples, the highest quantile that leaves minBeyond samples above
// it is 1 - minBeyond/n. The median is always allowed. It returns the
// quantile actually used.
func tailQuantile(n int, q float64) float64 {
	if n <= 0 {
		return 0.5
	}
	limit := 1 - float64(minBeyond)/float64(n)
	if q > limit {
		q = limit
	}
	if q < 0.5 {
		q = 0.5
	}
	return q
}

// percentile is the rule-obeying percentile of xs: the requested upper
// quantile q, lowered to the highest one with minBeyond samples beyond
// it when xs is too small. used is the quantile reported.
func percentile(xs []float64, q float64) (v, used float64) {
	used = tailQuantile(len(xs), q)
	return quantile(xs, used), used
}

// tailLadder is the set of upper percentiles a summary picks from.
var tailLadder = []float64{0.999, 0.99, 0.98, 0.95, 0.9, 0.75}

// summary is one metric's samples reduced for reporting.
type summary struct {
	N      int
	Median float64
	Q1, Q3 float64
	// Tail is the highest percentile from tailLadder with minBeyond
	// samples beyond it (TailQ = 0 when there are too few samples).
	Tail  float64
	TailQ float64
}

func summarize(xs []float64) summary {
	s := summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	s.Median = quantile(xs, 0.5)
	s.Q1 = quantile(xs, 0.25)
	s.Q3 = quantile(xs, 0.75)
	for _, q := range tailLadder {
		if tailQuantile(len(xs), q) == q {
			s.Tail, s.TailQ = quantile(xs, q), q
			break
		}
	}
	return s
}

func (s summary) String() string {
	tail := "-"
	if s.TailQ > 0 {
		tail = fmt.Sprintf("p%g=%.6g", s.TailQ*100, s.Tail)
	}
	return fmt.Sprintf("n=%-4d median=%-12.6g q1=%-12.6g q3=%-12.6g %s", s.N, s.Median, s.Q1, s.Q3, tail)
}
