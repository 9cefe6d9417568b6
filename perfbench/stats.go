package main

import (
	"math"
	"sort"
	"time"

	"photon/internal/metrics"
)

// tailLadder lists, in per-mille, the percentiles a tail may be reported at,
// highest first.
var tailLadder = []int{999, 990, 950, 900, 750, 500}

// tailPerMille returns the highest ladder percentile (in per-mille) that has
// at least ten of n samples beyond it, or 0 when n is too small for any.
func tailPerMille(n int) int {
	for _, pm := range tailLadder {
		if n*(1000-pm) >= 10*1000 {
			return pm
		}
	}
	return 0
}

// percentile returns the nearest-rank percentile pm (per-mille) of sorted.
func percentile(sorted []float64, pm int) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := (len(sorted)*pm + 999) / 1000
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// median returns the median of xs (the mean of the two middle values for an
// even count), NaN for none. xs is not modified.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// summary is a sample set reduced the way every timing is reported: the
// median, the highest percentile with at least ten samples beyond it, and
// the sample count.
type summary struct {
	N      int
	Median float64
	TailPM int // per-mille of Tail; 0 when n supports no tail
	Tail   float64
	Min    float64
	Max    float64
}

func summarize(xs []float64) summary {
	s := summary{N: len(xs), Median: median(xs)}
	if len(xs) == 0 {
		return s
	}
	sorted := sortedCopy(xs)
	s.Min, s.Max = sorted[0], sorted[len(sorted)-1]
	if pm := tailPerMille(len(xs)); pm > 0 {
		s.TailPM, s.Tail = pm, percentile(sorted, pm)
	}
	return s
}

// timeToPPL returns the wall seconds from the Serve call until validation
// perplexity first reached target: metrics.History.TimeToPPL over the round
// records re-stamped with their OnRound wall offsets, so the crossing is
// interpolated between evaluations on measured time.
func timeToPPL(recs []metrics.Round, at []time.Duration, target float64) (float64, bool) {
	h := &metrics.History{}
	for i, r := range recs {
		r.SimSeconds = at[i].Seconds()
		h.Append(r)
	}
	return h.TimeToPPL(target)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
