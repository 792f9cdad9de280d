package main

import (
	"fmt"
	"sort"
	"time"
)

// tailLevels are the percentiles a tail can be reported at, highest
// first, in tenths of a percent.
var tailLevels = []int{999, 990, 900, 500}

// minBeyond is how many samples must lie beyond a tail level, so that a
// tail is never read off a handful of outliers.
const minBeyond = 10

// rank returns the nearest-rank index of the permille-th percentile in a
// sorted sample of n values.
func rank(permille, n int) int {
	return max((permille*n+999)/1000-1, 0)
}

// levelFor returns the highest level in tailLevels with at least
// minBeyond of n samples beyond it, or 0 when none has.
func levelFor(n int) int {
	for _, p := range tailLevels {
		if n-(rank(p, n)+1) >= minBeyond {
			return p
		}
	}
	return 0
}

// percentile returns the nearest-rank permille-th percentile of xs and
// how many samples lie beyond it.
func percentile(xs []float64, permille int) (value float64, beyond int) {
	s := sorted(xs)
	if len(s) == 0 {
		return 0, 0
	}
	i := rank(permille, len(s))
	return s[i], len(s) - (i + 1)
}

func levelName(permille int) string { return fmt.Sprintf("p%g", float64(permille)/10) }

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value (the mean of the middle two for an
// even count), or 0 for an empty sample.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// perUnit divides a duration by a count in the given time unit, or
// returns 0 when nothing was counted.
func perUnit(d time.Duration, n uint64, unit time.Duration) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / float64(unit) / float64(n)
}

// distribution summarises a latency sample in milliseconds: minimum,
// every tail level the sample supports, and maximum.
func distribution(xs []float64) string {
	s := sorted(xs)
	if len(s) == 0 {
		return "no samples"
	}
	out := fmt.Sprintf("min %.4g", s[0])
	top := levelFor(len(s))
	for i := len(tailLevels) - 1; i >= 0 && top > 0 && tailLevels[i] <= top; i-- {
		out += fmt.Sprintf(" %s %.4g", levelName(tailLevels[i]), s[rank(tailLevels[i], len(s))])
	}
	return out + fmt.Sprintf(" max %.4g ms", s[len(s)-1])
}
