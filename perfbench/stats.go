package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported tail percentile.
const minBeyond = 10

// Tail is a latency distribution reduced to what the benchmark reports: the
// median, the highest percentile (up to Want) with at least minBeyond
// samples beyond it, and the sample count.
type Tail struct {
	N      int
	P50    float64
	Pct    float64 // the percentile Value reports; 0 when N is too small
	Value  float64
	Sorted []float64
}

// tailPercentile is the highest percentile, in steps of 0.1 and at most
// want, whose nearest-rank position leaves at least minBeyond of n samples
// beyond it. It returns 0 when n is too small for any.
func tailPercentile(n int, want float64) float64 {
	if n <= minBeyond {
		return 0
	}
	p := math.Min(want, math.Floor(1000*float64(n-minBeyond)/float64(n))/10)
	for p > 0 && rankOf(n, p) > n-minBeyond {
		p = math.Round(10*p-1) / 10
	}
	return p
}

// rankOf is the 1-based nearest-rank position of percentile p among n.
func rankOf(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return max(r, 1)
}

// quantile is the nearest-rank percentile p of sorted samples.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankOf(len(sorted), p)-1]
}

// summarize applies the percentile rule to samples (sorting them in place).
func summarize(samples []float64, want float64) Tail {
	sort.Float64s(samples)
	t := Tail{N: len(samples), Sorted: samples}
	if len(samples) == 0 {
		return t
	}
	t.P50 = quantile(samples, 50)
	if t.Pct = tailPercentile(len(samples), want); t.Pct > 0 {
		t.Value = quantile(samples, t.Pct)
	} else {
		t.Value = samples[len(samples)-1]
	}
	return t
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
