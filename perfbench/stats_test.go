package main

import (
	"math"
	"testing"
	"time"

	"photon/internal/metrics"
)

func TestTailPerMille(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{0, 0}, {19, 0}, {20, 500}, {39, 500}, {40, 750}, {99, 750},
		{100, 900}, {199, 900}, {200, 950}, {999, 950}, {1000, 990}, {9999, 990}, {10000, 999},
	} {
		if got := tailPerMille(tc.n); got != tc.want {
			t.Errorf("tailPerMille(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

// TestTailHasTenBeyond checks the reporting rule itself: for every sample
// count, at least ten samples lie strictly beyond the reported tail, and
// the next ladder step up would leave fewer than ten.
func TestTailHasTenBeyond(t *testing.T) {
	for n := 1; n <= 2500; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		s := summarize(xs)
		if s.TailPM == 0 {
			if n >= 20 {
				t.Fatalf("n=%d: no tail reported", n)
			}
			continue
		}
		beyond := 0
		for _, x := range xs {
			if x > s.Tail {
				beyond++
			}
		}
		if beyond < 10 {
			t.Fatalf("n=%d: p%g has %d samples beyond it", n, float64(s.TailPM)/10, beyond)
		}
		for _, pm := range tailLadder {
			if pm <= s.TailPM {
				break
			}
			above := 0
			for _, x := range xs {
				if x > percentile(xs, pm) {
					above++
				}
			}
			if above >= 10 {
				t.Fatalf("n=%d: reported p%g but p%g still has %d beyond", n, float64(s.TailPM)/10, float64(pm)/10, above)
			}
		}
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile(xs, 900); got != 90 {
		t.Errorf("p90 of 1..100 = %g, want 90", got)
	}
	if got := percentile(xs, 990); got != 99 {
		t.Errorf("p99 of 1..100 = %g, want 99", got)
	}
}

// TestTimeToPPLInterpolatesWallTime checks that the crossing is interpolated
// on the OnRound wall offsets, not on round indices or simulated time.
func TestTimeToPPLInterpolatesWallTime(t *testing.T) {
	recs := []metrics.Round{
		{Round: 1, ValPPL: 50, SimSeconds: 100},
		{Round: 2, ValPPL: 40, SimSeconds: 200},
		{Round: 3, ValPPL: 20, SimSeconds: 300},
	}
	at := []time.Duration{1 * time.Second, 2 * time.Second, 4 * time.Second}
	got, ok := timeToPPL(recs, at, 30)
	if !ok || math.Abs(got-3) > 1e-12 {
		t.Fatalf("timeToPPL(30) = %g, %v; want 3 (halfway between 2s and 4s)", got, ok)
	}
	if got, ok := timeToPPL(recs, at, 50); !ok || got != 1 {
		t.Fatalf("timeToPPL(50) = %g, %v; want the first eval's 1s", got, ok)
	}
	if _, ok := timeToPPL(recs, at, 10); ok {
		t.Fatal("timeToPPL(10) reached a target no eval met")
	}
	// Rounds without an evaluation are skipped, not treated as PPL 0.
	gap := []metrics.Round{{ValPPL: 40}, {ValPPL: 0}, {ValPPL: 20}}
	got, ok = timeToPPL(gap, []time.Duration{time.Second, 2 * time.Second, 3 * time.Second}, 30)
	if !ok || math.Abs(got-2) > 1e-12 {
		t.Fatalf("timeToPPL across an unevaluated round = %g, %v; want 2", got, ok)
	}
}
