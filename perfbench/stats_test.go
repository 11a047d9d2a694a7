package main

import (
	"math"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %g, want %g", tc.xs, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples is not NaN")
	}
}

// TestQuartilesInclusive pins the quartiles to Python's
// statistics.quantiles(values, n=4, method="inclusive").
func TestQuartilesInclusive(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(xs)
	if q1 != 3.25 || q3 != 7.75 {
		t.Errorf("quartiles = %g, %g, want 3.25, 7.75", q1, q3)
	}
	// The input is not reordered.
	if xs[0] != 10 || xs[1] != 1 {
		t.Errorf("quartiles sorted its input: %v", xs)
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: tail must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n         int
		wantPct   float64
		wantValue float64
	}{
		{2000, 99, 1980}, // rank 1980, 20 beyond
		{1000, 99, 990},  // rank 990, exactly 10 beyond
		{999, 95, 950},   // p99 would leave 9 beyond
		{100, 90, 90},    // p95 leaves 5
		{40, 75, 30},     // p90 leaves 4
		{20, 50, 10},     // p75 leaves 5
		{10, 100, 10},    // nothing qualifies: the maximum
	} {
		pct, v := tail(seq(tc.n))
		if pct != tc.wantPct || v != tc.wantValue {
			t.Errorf("tail(1..%d) = p%g %g, want p%g %g", tc.n, pct, v, tc.wantPct, tc.wantValue)
		}
	}
}

func TestPassLoopReportsMedianPass(t *testing.T) {
	// Three passes of 1000 ops: two take 1 s of wall and 2 s of CPU, one
	// that a slow spell lands on takes 5 s and 10 s. The clock's start
	// mark is set back by those amounts; passLoop marks the end.
	r := &run{seconds: 3}
	slow := []time.Duration{time.Second, 5 * time.Second, time.Second}
	k := 0
	err := r.passLoop(1, func(pc *passClock) (int, int, error) {
		d := slow[k]
		k++
		pc.marks = append(pc.marks, mark{wall: time.Now().Add(-d), cpu: processCPU() - 2*d})
		return 1000, 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if k != 3 || r.ops != 3000 {
		t.Fatalf("%d passes, %d ops; want 3, 3000", k, r.ops)
	}
	if got := r.opsPerSec(); math.Abs(got-1000) > 10 {
		t.Errorf("ops_per_s = %g, want about 1000", got)
	}
	if got := median(r.cpuPerOp); math.Abs(got-2000) > 20 {
		t.Errorf("cpu_us_per_op = %g, want about 2000", got)
	}
}
