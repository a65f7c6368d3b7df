package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted xs by linear
// interpolation between closest ranks (Hyndman–Fan type 7, the numpy
// default). It returns NaN for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	h := q * float64(n-1)
	lo := int(math.Floor(h))
	if lo >= n-1 {
		return sorted[n-1]
	}
	return sorted[lo] + (h-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func usOf(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// chunkLen is the length of one latency-sample chunk. Samples live in
// fixed-size chunks so a long run grows the harness's memory in small
// steps rather than by doubling one large slice, which keeps the
// benchmark process's peak RSS steady.
const chunkLen = 1 << 15

// samples is an append-only list of float32 latencies in µs.
type samples struct {
	chunks [][]float32
	n      int
}

func (s *samples) add(v float64) {
	if s.n%chunkLen == 0 {
		s.chunks = append(s.chunks, make([]float32, 0, chunkLen))
	}
	c := &s.chunks[len(s.chunks)-1]
	*c = append(*c, float32(v))
	s.n++
}

// appendTo appends the samples to xs.
func (s *samples) appendTo(xs []float64) []float64 {
	for _, c := range s.chunks {
		for _, v := range c {
			xs = append(xs, float64(v))
		}
	}
	return xs
}

// recorder collects one client's per-op latencies split into equal
// wall-clock windows of the timed phase. Each client owns its recorder,
// so recording takes no lock.
type recorder struct {
	t0      time.Time
	window  time.Duration
	windows []samples
}

func newRecorder(t0 time.Time, window time.Duration, windows int) *recorder {
	return &recorder{t0: t0, window: window, windows: make([]samples, windows)}
}

// add records one op that started at start and took d; ops starting
// after the last window are dropped.
func (r *recorder) add(start time.Time, d time.Duration) {
	if w := r.windowOf(start); w >= 0 {
		r.windows[w].add(usOf(d))
	}
}

// loopStats summarises a closed-loop phase: throughput and latency
// percentiles over every op that started in the chosen windows.
type loopStats struct {
	throughput float64
	p50, p99   float64
	samples    int
}

// summarise folds the windows for which pick is true (nil picks all).
func summarise(recs []*recorder, pick func(w int) bool) loopStats {
	var xs []float64
	picked := 0
	for w := range recs[0].windows {
		if pick != nil && !pick(w) {
			continue
		}
		picked++
		for _, r := range recs {
			xs = r.windows[w].appendTo(xs)
		}
	}
	sort.Float64s(xs)
	return loopStats{
		throughput: float64(len(xs)) / (float64(picked) * recs[0].window.Seconds()),
		p50:        quantile(xs, 0.50),
		p99:        quantile(xs, 0.99),
		samples:    len(xs),
	}
}

// windowOf returns the window a time falls in, or -1 outside them.
func (r *recorder) windowOf(t time.Time) int {
	w := int(t.Sub(r.t0) / r.window)
	if t.Before(r.t0) || w >= len(r.windows) {
		return -1
	}
	return w
}
