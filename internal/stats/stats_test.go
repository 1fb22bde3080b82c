package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Error("empty summary not zero")
	}
	for _, v := range []float64{3, 1, 4, 1, 5} {
		s.Add(v)
	}
	if s.N() != 5 {
		t.Errorf("N = %d", s.N())
	}
	if s.Mean() != 2.8 {
		t.Errorf("Mean = %g, want 2.8", s.Mean())
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Errorf("Min/Max = %g/%g", s.Min(), s.Max())
	}
	if s.Sum() != 14 {
		t.Errorf("Sum = %g", s.Sum())
	}
	wantVar := (9.0+1+16+1+25)/5.0 - 2.8*2.8
	if math.Abs(s.Variance()-wantVar) > 1e-9 {
		t.Errorf("Variance = %g, want %g", s.Variance(), wantVar)
	}
}

func TestSummaryMerge(t *testing.T) {
	var a, b, all Summary
	for i := 0; i < 10; i++ {
		a.Add(float64(i))
		all.Add(float64(i))
	}
	for i := 10; i < 25; i++ {
		b.Add(float64(i))
		all.Add(float64(i))
	}
	a.Merge(&b)
	if a.N() != all.N() || a.Mean() != all.Mean() || a.Min() != all.Min() || a.Max() != all.Max() {
		t.Errorf("merge mismatch: %v vs %v", a.String(), all.String())
	}
	var empty Summary
	a.Merge(&empty) // no-op
	if a.N() != all.N() {
		t.Error("merging empty changed N")
	}
}

func TestSampleQuantilesExact(t *testing.T) {
	s := NewSample()
	for _, v := range []float64{9, 1, 8, 2, 7, 3, 6, 4, 5} {
		s.Add(v)
	}
	tests := []struct{ q, want float64 }{
		{0, 1}, {0.5, 5}, {1, 9}, {0.25, 3},
	}
	for _, tt := range tests {
		if got := s.Quantile(tt.q); got != tt.want {
			t.Errorf("Quantile(%g) = %g, want %g", tt.q, got, tt.want)
		}
	}
	if got := s.Percentile(50); got != 5 {
		t.Errorf("Percentile(50) = %g", got)
	}
}

func TestSampleQuantileInterpolates(t *testing.T) {
	s := NewSample()
	s.Add(0)
	s.Add(10)
	if got := s.Quantile(0.5); got != 5 {
		t.Errorf("interpolated median = %g, want 5", got)
	}
}

func TestSampleQuantileClampsRange(t *testing.T) {
	s := NewSample()
	s.Add(3)
	if s.Quantile(-1) != 3 || s.Quantile(2) != 3 {
		t.Error("quantile out-of-range not clamped")
	}
	var empty Sample
	if empty.Quantile(0.5) != 0 {
		t.Error("empty quantile != 0")
	}
}

func TestReservoirBoundsMemoryKeepsExactMean(t *testing.T) {
	r := NewReservoir(100, 42)
	sum := 0.0
	const n = 10000
	for i := 0; i < n; i++ {
		r.Add(float64(i))
		sum += float64(i)
	}
	if r.N() != n {
		t.Errorf("N = %d", r.N())
	}
	if len(r.values) != 100 {
		t.Errorf("stored %d values, want 100", len(r.values))
	}
	if r.Mean() != sum/n {
		t.Errorf("Mean = %g, want exact %g", r.Mean(), sum/n)
	}
	if r.Min() != 0 || r.Max() != n-1 {
		t.Error("exact min/max lost")
	}
	// The reservoir median should approximate the true median.
	med := r.Quantile(0.5)
	if med < n/4 || med > 3*n/4 {
		t.Errorf("reservoir median %g implausible", med)
	}
}

func TestReservoirInvalidCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewReservoir(0, 1)
}

func TestQuantileMatchesSortReference(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		s := NewSample()
		for _, v := range vals {
			s.Add(v)
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		return s.Quantile(0) == sorted[0] && s.Quantile(1) == sorted[len(sorted)-1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTimeWeightedMean(t *testing.T) {
	var w TimeWeighted
	w.Observe(0, 10) // value 10 during [0,2)
	w.Observe(2, 0)  // value 0 during [2,4)
	if got := w.MeanAt(4); got != 5 {
		t.Errorf("MeanAt(4) = %g, want 5", got)
	}
	if w.Max() != 10 {
		t.Errorf("Max = %g", w.Max())
	}
}

func TestTimeWeightedHoldsLastValue(t *testing.T) {
	var w TimeWeighted
	w.Observe(0, 4)
	// Value holds at 4 through [0, 10).
	if got := w.MeanAt(10); got != 4 {
		t.Errorf("MeanAt = %g, want 4", got)
	}
}

func TestTimeWeightedEmptyAndEarly(t *testing.T) {
	var w TimeWeighted
	if w.MeanAt(5) != 0 {
		t.Error("empty mean != 0")
	}
	w.Observe(3, 7)
	if w.MeanAt(2) != 0 {
		t.Error("mean before first observation != 0")
	}
}

func TestSummaryNonNegativeVarianceProperty(t *testing.T) {
	f := func(vals []float64) bool {
		var s Summary
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				continue
			}
			s.Add(v)
		}
		return s.Variance() >= 0 && s.Min() <= s.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
