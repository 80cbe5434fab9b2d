package main

import (
	"strings"
	"testing"
)

func seq(n int) []int64 {
	s := make([]int64, n)
	for i := range s {
		s[i] = int64(i + 1)
	}
	return s
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		p      float64
		want   int64
		wantOK bool
	}{
		{1000, 0.99, 990, true},   // exactly 10 beyond
		{999, 0.99, 990, false},   // 9 beyond
		{20, 0.50, 10, true},      // exactly 10 beyond
		{19, 0.50, 10, false},     // 9 beyond
		{100, 0.90, 90, true},     // exactly 10 beyond
		{99, 0.90, 90, false},     // 9 beyond
		{10000, 0.99, 9900, true}, // 100 beyond
	} {
		v, ok := percentile(seq(tc.n), tc.p)
		if v != tc.want || ok != tc.wantOK {
			t.Errorf("percentile(n=%d, p=%v) = %d, %v; want %d, %v", tc.n, tc.p, v, ok, tc.want, tc.wantOK)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported ok")
	}
}

func TestMinSamplesMatchesPercentile(t *testing.T) {
	for _, p := range []float64{0.5, 0.9, 0.99} {
		n := minSamples(p)
		if _, ok := percentile(seq(n), p); !ok {
			t.Errorf("p=%v: %d samples not enough", p, n)
		}
		if _, ok := percentile(seq(n-1), p); ok {
			t.Errorf("p=%v: %d samples already enough, minSamples said %d", p, n-1, n)
		}
	}
	if got := minSamples(0.99); got != 1000 {
		t.Errorf("minSamples(0.99) = %d, want 1000", got)
	}
}

func TestMedianOf(t *testing.T) {
	if got := medianOf([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	xs := []float64{4, 1, 3, 2}
	if got := medianOf(xs); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if xs[0] != 4 {
		t.Error("medianOf reordered its input")
	}
}

func TestRatioPrintsItsBase(t *testing.T) {
	r := ratioOf(42, "steals", 1000, "attempts")
	if r.value() != 0.042 {
		t.Errorf("value = %v", r.value())
	}
	s := r.String()
	for _, want := range []string{"0.042", "steals 42", "attempts 1000"} {
		if !strings.Contains(s, want) {
			t.Errorf("%q lacks %q", s, want)
		}
	}
	empty := ratioOf(5, "frames", 0, "messages")
	if empty.value() != 0 {
		t.Errorf("zero base gave %v", empty.value())
	}
	if !strings.Contains(empty.String(), "messages 0") {
		t.Errorf("zero base not printed: %q", empty.String())
	}
}
