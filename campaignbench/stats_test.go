package main

import (
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so the helper must sort
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	if v, ok := percentile(seq(100), 0.9); !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90, true", v, ok)
	}
	if _, ok := percentile(seq(99), 0.9); ok {
		t.Error("p90 of 99 samples has only 9 beyond it; want not reportable")
	}
	if v, ok := percentile(seq(20), 0.5); !ok || v != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10, true", v, ok)
	}
	if _, ok := percentile(seq(19), 0.5); ok {
		t.Error("p50 of 19 samples has only 9 beyond it; want not reportable")
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples is not reportable")
	}
}

func TestMedian(t *testing.T) {
	if got := median(seq(4)); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	if got := median(seq(5)); got != 3 {
		t.Errorf("median of 1..5 = %v, want 3", got)
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{id: 1, name: "root", start: 0, end: ms(100)},
		{id: 2, parent: 1, name: "a", start: ms(10), end: ms(40)},
		{id: 3, parent: 1, name: "b", start: ms(30), end: ms(50)},  // overlaps a
		{id: 4, parent: 1, name: "c", start: ms(90), end: ms(120)}, // runs past root
		{id: 5, parent: 2, name: "leaf", start: ms(15), end: ms(20)},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: ms(50), 2: ms(25), 3: ms(20), 4: ms(30), 5: ms(5)} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
}
