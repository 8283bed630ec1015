package main

import (
	"math"
	"slices"
	"time"
)

// tailLadder is the set of percentiles, in hundredths of a percent, a tail
// latency may be reported at. It stops at p99.5: above it, on a small
// shared host, the few samples left are host stalls more than server
// behaviour, and the figure no longer repeats from run to run.
var tailLadder = []int{9000, 9500, 9800, 9900, 9950}

// rankIndex is the 0-based nearest-rank index of percentile p (hundredths
// of a percent) in n sorted samples.
func rankIndex(n, p int) int {
	i := (p*n+9999)/10000 - 1
	return min(max(i, 0), n-1)
}

// tailPercentile is the highest ladder percentile that still has at least
// ten samples strictly beyond it, or the median when even p90 has fewer.
func tailPercentile(n int) int {
	best := 5000
	for _, p := range tailLadder {
		if n-rankIndex(n, p)-1 >= 10 {
			best = p
		}
	}
	return best
}

// latencySummary reports p50 and the tail percentile of the latencies. A
// failed request counts as missing every latency limit: it is placed above
// every success, at the whole run's wall time.
func latencySummary(ok []time.Duration, failed int, wall time.Duration) (p50, tail time.Duration, tailP, n int) {
	all := append(slices.Clone(ok), make([]time.Duration, failed)...)
	for i := len(ok); i < len(all); i++ {
		all[i] = wall
	}
	slices.Sort(all)
	n = len(all)
	if n == 0 {
		return 0, 0, 0, 0
	}
	tailP = tailPercentile(n)
	return all[rankIndex(n, 5000)], all[rankIndex(n, tailP)], tailP, n
}

// median of xs (the mean of the middle two for an even count); 0 if empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// geomean of xs, summed in sorted order so the same multiset always gives
// the same bits.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	sum := 0.0
	for _, x := range s {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(s)))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
