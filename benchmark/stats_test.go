package main

import (
	"math"
	"testing"
)

func TestHighestTail(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{n: 0, ok: false},
		{n: 19, ok: false},
		{n: 20, want: 50, ok: true},
		{n: 99, want: 50, ok: true},
		{n: 100, want: 90, ok: true},
		{n: 999, want: 90, ok: true},
		{n: 1000, want: 99, ok: true},
		{n: 10000, want: 99.9, ok: true},
	} {
		got, ok := highestTail(tc.n)
		if ok != tc.ok || got != tc.want {
			t.Errorf("highestTail(%d) = %g, %v; want %g, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var s samples
	for v := 100; v >= 1; v-- {
		s = append(s, float64(v))
	}
	if got := s.median(); got != 50 {
		t.Errorf("median = %g, want 50", got)
	}
	if got := s.percentile(90); got != 90 {
		t.Errorf("p90 = %g, want 90", got)
	}
	if got := s.percentile(100); got != 100 {
		t.Errorf("p100 = %g, want 100", got)
	}
	if s[0] != 100 {
		t.Error("percentile sorted the caller's samples in place")
	}
	if !math.IsNaN(samples(nil).median()) {
		t.Error("median of no samples is a number")
	}
}

func TestTailEnforcesTheRule(t *testing.T) {
	s := make(samples, 99)
	for i := range s {
		s[i] = float64(i)
	}
	if _, err := s.tail(90); err == nil {
		t.Error("p90 of 99 samples was allowed: only 9.9 lie beyond it")
	}
	s = append(s, 99)
	v, err := s.tail(90)
	if err != nil || v != 89 {
		t.Errorf("p90 of 0..99 = %g, %v; want 89", v, err)
	}
	if _, err := s.tail(99); err == nil {
		t.Error("p99 of 100 samples was allowed")
	}
}
