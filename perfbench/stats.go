package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method), so
// the steadiness report matches the acceptance arithmetic.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := float64(len(s))
	at := func(j float64) float64 {
		// position j/4·(n+1), 1-based, clamped to the sample range
		p := j * (n + 1) / 4
		if p <= 1 {
			return s[0]
		}
		if p >= n {
			return s[len(s)-1]
		}
		i := int(math.Floor(p))
		return s[i-1] + (s[i]-s[i-1])*(p-float64(i))
	}
	return at(1), at(3)
}

// durations converts a sample of durations to float64 in the given unit.
func durations(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}
