// Package stats provides the small statistics toolkit used by the metrics
// pipeline and the figure generators: streaming summaries, percentile
// estimation over stored samples, fixed-bin histograms and time-weighted
// averages.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary accumulates a stream of float64 observations.
type Summary struct {
	n          uint64
	sum, sumSq float64
	min, max   float64
}

// Add folds in one observation.
func (s *Summary) Add(v float64) {
	if s.n == 0 || v < s.min {
		s.min = v
	}
	if s.n == 0 || v > s.max {
		s.max = v
	}
	s.n++
	s.sum += v
	s.sumSq += v * v
}

// N returns the observation count.
func (s *Summary) N() uint64 { return s.n }

// Mean returns the arithmetic mean (0 when empty).
func (s *Summary) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// Sum returns the running total.
func (s *Summary) Sum() float64 { return s.sum }

// Min returns the smallest observation (0 when empty).
func (s *Summary) Min() float64 {
	if s.n == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest observation (0 when empty).
func (s *Summary) Max() float64 {
	if s.n == 0 {
		return 0
	}
	return s.max
}

// Variance returns the population variance.
func (s *Summary) Variance() float64 {
	if s.n == 0 {
		return 0
	}
	m := s.Mean()
	v := s.sumSq/float64(s.n) - m*m
	if v < 0 {
		v = 0 // numerical noise
	}
	return v
}

// StdDev returns the population standard deviation.
func (s *Summary) StdDev() float64 { return math.Sqrt(s.Variance()) }

// Merge folds another summary into s.
func (s *Summary) Merge(o *Summary) {
	if o.n == 0 {
		return
	}
	if s.n == 0 {
		*s = *o
		return
	}
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	s.n += o.n
	s.sum += o.sum
	s.sumSq += o.sumSq
}

// String formats the summary compactly.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g min=%.4g max=%.4g sd=%.4g",
		s.n, s.Mean(), s.Min(), s.Max(), s.StdDev())
}

// Sample stores observations for exact quantiles. To bound memory on very
// long runs it can be constructed with reservoir sampling.
type Sample struct {
	values  []float64
	sorted  bool
	cap     int // reservoir capacity; 0 = unbounded
	seen    uint64
	rng     uint64 // xorshift state for the reservoir
	summary Summary
}

// NewSample returns an unbounded sample store.
func NewSample() *Sample { return &Sample{} }

// NewReservoir returns a sample that keeps at most capacity observations,
// uniformly chosen (Vitter's algorithm R).
func NewReservoir(capacity int, seed uint64) *Sample {
	if capacity <= 0 {
		panic("stats: reservoir capacity must be positive")
	}
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	// Pre-size the reservoir: Add never reallocates, even during fill.
	return &Sample{cap: capacity, rng: seed, values: make([]float64, 0, capacity)}
}

func (s *Sample) nextRand() uint64 {
	x := s.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	s.rng = x
	return x
}

// Add records one observation.
func (s *Sample) Add(v float64) {
	s.summary.Add(v)
	s.seen++
	s.sorted = false
	if s.cap == 0 || len(s.values) < s.cap {
		s.values = append(s.values, v)
		return
	}
	// Reservoir replacement.
	j := s.nextRand() % s.seen
	if j < uint64(s.cap) {
		s.values[j] = v
	}
}

// N returns the total number of observations seen.
func (s *Sample) N() uint64 { return s.seen }

// Mean returns the exact mean over all observations seen.
func (s *Sample) Mean() float64 { return s.summary.Mean() }

// Max returns the exact maximum over all observations seen.
func (s *Sample) Max() float64 { return s.summary.Max() }

// Min returns the exact minimum over all observations seen.
func (s *Sample) Min() float64 { return s.summary.Min() }

// Summary returns the exact streaming summary.
func (s *Sample) Summary() *Summary { return &s.summary }

// Quantile returns the q-quantile (0<=q<=1) over the stored values using
// linear interpolation. Returns 0 on an empty sample.
func (s *Sample) Quantile(q float64) float64 {
	if len(s.values) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	if !s.sorted {
		sort.Float64s(s.values)
		s.sorted = true
	}
	pos := q * float64(len(s.values)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s.values[lo]
	}
	frac := pos - float64(lo)
	return s.values[lo]*(1-frac) + s.values[hi]*frac
}

// Percentile is Quantile with p in [0,100].
func (s *Sample) Percentile(p float64) float64 { return s.Quantile(p / 100) }

// Windowed partitions timestamped observations into fixed-width time
// windows and reports per-window statistics — the steady-state view the
// multi-tenant experiments need (P50/P99 latency per measurement window)
// instead of one whole-run aggregate.
//
// Window i covers [start + i*width, start + (i+1)*width). Observations
// before start are discarded; when a window limit is set, observations at
// or beyond the last window are discarded too. Windows materialize lazily
// in Add, so a quiet tail costs nothing.
type Windowed struct {
	start, width float64
	limit        int     // max windows (0 = unbounded)
	cutoff       float64 // drop observations at/after this time (0 = none)
	reservoir    int     // per-window sample bound (0 = keep all)
	seed         uint64
	wins         []*Sample
}

// NewWindowed returns a windowed accumulator over [start, start+limit*width)
// (limit 0 = unbounded). width must be positive.
func NewWindowed(start, width float64, limit int) *Windowed {
	if width <= 0 {
		panic("stats: window width must be positive")
	}
	if limit < 0 {
		panic("stats: window limit must be non-negative")
	}
	return &Windowed{start: start, width: width, limit: limit}
}

// NewWindowedReservoir is NewWindowed with each window's sample store bounded
// by reservoir sampling (means and counts remain exact).
func NewWindowedReservoir(start, width float64, limit, capacity int, seed uint64) *Windowed {
	w := NewWindowed(start, width, limit)
	if capacity <= 0 {
		panic("stats: windowed reservoir capacity must be positive")
	}
	w.reservoir = capacity
	w.seed = seed
	return w
}

// SetCutoff drops observations at or after t (seconds) even when they fall
// inside the last window — for measurement phases that end mid-window, so
// the final window cannot absorb post-phase samples.
func (w *Windowed) SetCutoff(t float64) { w.cutoff = t }

// Add records observation v at time t (seconds). Observations outside the
// covered range (or at/after the cutoff) are dropped.
func (w *Windowed) Add(t, v float64) {
	if t < w.start {
		return
	}
	if w.cutoff != 0 && t >= w.cutoff {
		return
	}
	i := int((t - w.start) / w.width)
	if w.limit > 0 && i >= w.limit {
		return
	}
	for len(w.wins) <= i {
		w.wins = append(w.wins, nil)
	}
	if w.wins[i] == nil {
		if w.reservoir > 0 {
			// Distinct seeds per window keep the reservoirs independent.
			w.wins[i] = NewReservoir(w.reservoir, w.seed+uint64(i)*0x9e3779b97f4a7c15+1)
		} else {
			w.wins[i] = NewSample()
		}
	}
	w.wins[i].Add(v)
}

// Windows returns the number of materialized windows (the highest window
// index observed plus one; trailing quiet windows are not counted).
func (w *Windowed) Windows() int { return len(w.wins) }

// WindowStart returns the start time of window i in seconds.
func (w *Windowed) WindowStart(i int) float64 { return w.start + float64(i)*w.width }

// Width returns the window width in seconds.
func (w *Windowed) Width() float64 { return w.width }

// Count returns the number of observations in window i (0 if the window was
// never materialized or is out of range).
func (w *Windowed) Count(i int) uint64 {
	if i < 0 || i >= len(w.wins) || w.wins[i] == nil {
		return 0
	}
	return w.wins[i].N()
}

// Quantile returns the q-quantile of window i (0 when the window is empty).
func (w *Windowed) Quantile(i int, q float64) float64 {
	if i < 0 || i >= len(w.wins) || w.wins[i] == nil {
		return 0
	}
	return w.wins[i].Quantile(q)
}

// Mean returns the exact mean of window i (0 when empty).
func (w *Windowed) Mean(i int) float64 {
	if i < 0 || i >= len(w.wins) || w.wins[i] == nil {
		return 0
	}
	return w.wins[i].Mean()
}

// TimeWeighted tracks the time-average of a step function, e.g. queue
// occupancy sampled at transition instants.
type TimeWeighted struct {
	lastT   float64
	lastV   float64
	area    float64
	started bool
	startT  float64
	maxV    float64
}

// Observe records that the value changed to v at time t (seconds). Values
// between observations are held constant (left-continuous step function).
func (w *TimeWeighted) Observe(t, v float64) {
	if !w.started {
		w.started = true
		w.startT = t
	} else if t > w.lastT {
		w.area += w.lastV * (t - w.lastT)
	}
	w.lastT = t
	w.lastV = v
	if v > w.maxV {
		w.maxV = v
	}
}

// MeanAt returns the time-average over [start, t].
func (w *TimeWeighted) MeanAt(t float64) float64 {
	if !w.started || t <= w.startT {
		return 0
	}
	area := w.area
	if t > w.lastT {
		area += w.lastV * (t - w.lastT)
	}
	return area / (t - w.startT)
}

// Max returns the largest observed value.
func (w *TimeWeighted) Max() float64 { return w.maxV }
