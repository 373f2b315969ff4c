package main

import (
	"math"
	"sort"

	"espsim/internal/sim"
	"espsim/internal/stats"
	"espsim/internal/workload"
)

// minBeyond is how many samples must lie strictly beyond a reported
// percentile: a tail figure resting on fewer is noise, not a tail.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of xs (0 < p <= 100)
// and whether at least minBeyond samples lie beyond it. xs need not be
// sorted; it is not modified.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s[rank-1], n-rank >= minBeyond
}

// minSamples is the smallest sample count whose nearest-rank p-th
// percentile leaves minBeyond samples beyond it.
func minSamples(p float64) int {
	for n := 1; ; n++ {
		if n-int(math.Ceil(p/100*float64(n))) >= minBeyond {
			return n
		}
	}
}

// tailPercentile returns the highest of p99, p90, p75 and p50 that
// leaves minBeyond samples beyond it, and which percentile that is.
func tailPercentile(xs []float64) (v, p float64) {
	for _, p := range []float64{99, 90, 75} {
		if v, ok := percentile(xs, p); ok {
			return v, p
		}
	}
	return median(xs), 50
}

// median is the nearest-rank 50th percentile, or 0 for no samples.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 50)
	return v
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// paperGainPct is the paper's headline ESP+NL gain over NL+S (HMean
// over the suite, in percent).
const paperGainPct = 16

// fidelityOf is |HMean speedup of ESP+NL over NL+S (%) − 16| over the
// profiles' reference results keyed "app/config".
func fidelityOf(profs []workload.Profile, refs map[string]sim.Result) float64 {
	var sp []float64
	for _, p := range profs {
		sp = append(sp, refs[p.Name+"/ESP+NL"].Speedup(refs[p.Name+"/NL+S"]))
	}
	return math.Abs(stats.Improvement(stats.HarmonicMean(sp)) - paperGainPct)
}
