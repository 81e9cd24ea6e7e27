package main

import (
	"math"
	"sort"
	"time"
)

// minSamples is the sample count a percentile needs: at least ten
// samples beyond it, so a p50 needs 20 and a p90 needs 100 (a p99 would
// need 1000, which no workload reaches).
func minSamples(q float64) int {
	return int(math.Ceil(10/(1-q) - 1e-9))
}

// percentile returns the nearest-rank q-quantile of samples, and false
// when there are too few samples for that percentile to mean anything.
func percentile(samples []float64, q float64) (float64, bool) {
	if len(samples) == 0 || len(samples) < minSamples(q) {
		return 0, false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank], true
}

// median is the middle of repeated measurements of one quantity (set-up
// repetitions, passes, probe rounds); it has no sample-count rule.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
