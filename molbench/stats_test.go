package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1}, {0.1, 1},
	} {
		if got := percentile(vals, c.p); got != c.want {
			t.Errorf("percentile(p%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if vals[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples is not NaN")
	}
	// A failed request counts as infinitely late: it can only push the
	// tail up, never pull it down.
	withFail := []float64{1, 2, 3, math.Inf(1)}
	if got := percentile(withFail, 50); got != 2 {
		t.Errorf("p50 with a failure = %v, want 2", got)
	}
	if got := percentile(withFail, 99); !math.IsInf(got, 1) {
		t.Errorf("p99 with a failure = %v, want +Inf", got)
	}
}

// The want values are Python's statistics.quantiles(vals, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		vals []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{10, 12.5, 11, 30, 9.5, 10.25, 11.75}, [3]float64{10, 11, 12.5}},
	} {
		q1, q2, q3 := quartiles(c.vals)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.vals, got, c.want)
				break
			}
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-(8.25-2.75)/5.5) > 1e-12 {
		t.Errorf("spread = %v", got)
	}
}

func TestDueLatencyAndLateness(t *testing.T) {
	base := time.Unix(1000, 0)
	due := base.Add(10 * time.Millisecond)
	sent := base.Add(13 * time.Millisecond) // the generator ran 3ms behind
	done := base.Add(15 * time.Millisecond) // the server took 2ms
	if got := dueLatency(due, done); got != 5*time.Millisecond {
		t.Errorf("dueLatency = %v, want 5ms: the stall before sending is charged", got)
	}
	if got := lateness(due, sent); got != 3*time.Millisecond {
		t.Errorf("lateness = %v, want 3ms", got)
	}
	if got := lateness(due, base); got != 0 {
		t.Errorf("lateness of an early send = %v, want 0", got)
	}
	if got := msOf(1500 * time.Microsecond); got != 1.5 {
		t.Errorf("msOf = %v", got)
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v", got)
	}
}

func TestWindowedMedians(t *testing.T) {
	// Three one-second windows; the middle one holds a stall.
	at := []float64{0.1, 0.5, 0.9, 1.1, 1.5, 1.9, 2.1, 2.5, 2.9, 3.2}
	vals := []float64{1, 2, 3, 50, 60, 70, 2, 3, 4, 99}
	got := windowed(at, vals, 1, 3, 50)
	want := []float64{2, 60, 3}
	if len(got) != len(want) {
		t.Fatalf("windowed = %v, want %v (the sample past the span is dropped)", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("windowed = %v, want %v", got, want)
		}
	}
	if m := median(got); m != 3 {
		t.Errorf("median of window p50s = %v, want 3: one stalled window does not set it", m)
	}

	rates := windowRates([]float64{0.1, 0.2, 0.7, 1.5, 2.2, 2.4, 2.6, 2.95}, 0.5, 2.5)
	wantRates := []float64{4, 2, 0, 2, 4}
	for i := range wantRates {
		if rates[i] != wantRates[i] {
			t.Fatalf("windowRates = %v, want %v", rates, wantRates)
		}
	}
}

func TestImbalance(t *testing.T) {
	if got := imbalance([]int{10, 10, 10, 10}); got != 1 {
		t.Errorf("even spread = %v, want 1", got)
	}
	if got := imbalance([]int{40, 0, 0, 0}); got != 4 {
		t.Errorf("one busy machine = %v, want 4", got)
	}
	if got := imbalance(nil); got != 0 {
		t.Errorf("no machines = %v", got)
	}
}
