// Package stats provides the measurement primitives used by the simulation:
// counters, latency histograms, rates, and the aggregate statistics
// (geometric means, normalized speedups) reported in the paper's evaluation.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Counter is a monotonically increasing event/byte counter.
type Counter struct {
	n uint64
}

// Add increments the counter by v.
func (c *Counter) Add(v uint64) { c.n += v }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n++ }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.n = 0 }

// Sample accumulates a stream of values and reports mean/min/max.
type Sample struct {
	count uint64
	sum   float64
	sumSq float64
	min   float64
	max   float64
}

// Observe adds one value to the sample.
func (s *Sample) Observe(v float64) {
	if s.count == 0 || v < s.min {
		s.min = v
	}
	if s.count == 0 || v > s.max {
		s.max = v
	}
	s.count++
	s.sum += v
	s.sumSq += v * v
}

// Count returns the number of observations.
func (s *Sample) Count() uint64 { return s.count }

// Mean returns the arithmetic mean, or 0 for an empty sample.
func (s *Sample) Mean() float64 {
	if s.count == 0 {
		return 0
	}
	return s.sum / float64(s.count)
}

// Sum returns the sum of all observations.
func (s *Sample) Sum() float64 { return s.sum }

// Min returns the smallest observation, or 0 for an empty sample.
func (s *Sample) Min() float64 { return s.min }

// Max returns the largest observation, or 0 for an empty sample.
func (s *Sample) Max() float64 { return s.max }

// StdDev returns the population standard deviation.
func (s *Sample) StdDev() float64 {
	if s.count == 0 {
		return 0
	}
	m := s.Mean()
	v := s.sumSq/float64(s.count) - m*m
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// histBuckets is the dense log-bucket count: floor(log2(v+1)) for every
// latency a simulation can produce fits comfortably below 64 (bucket 63
// starts near 9e18 — beyond any cycle count the kernel can represent), so
// the bucket table is a fixed array and anything past it lands in a single
// overflow tail.
const histBuckets = 64

// Histogram is a log-scaled latency histogram with exact percentile support
// for moderate observation counts (it additionally retains raw values up to a
// cap, beyond which percentiles are estimated from buckets). The log-bucket
// index is small and bounded, so the buckets are a dense fixed array indexed
// directly — Observe is a couple of array stores, with no map hashing or
// bucket allocation — plus an overflow tail for the (practically
// unreachable) values beyond the last bucket; BenchmarkHistogramObserve
// measures the win over the map-backed layout this replaced.
type Histogram struct {
	Sample
	raw      []float64
	rawCap   int
	buckets  [histBuckets]uint64 // bucket index = floor(log2(v+1))
	overflow uint64              // observations past the last bucket

	// scratch holds a reorderable copy of raw for percentile selection: a
	// query copies raw in (once per batch of observations — Observe marks it
	// dirty) and then partially orders it in place via quickselect, so the
	// per-cell P99 of a sweep costs O(n) instead of a full O(n log n) sort.
	scratch []float64
	dirty   bool
}

// NewHistogram returns a histogram retaining up to rawCap exact values
// (rawCap <= 0 selects a default of 1<<16).
func NewHistogram(rawCap int) *Histogram {
	if rawCap <= 0 {
		rawCap = 1 << 16
	}
	return &Histogram{rawCap: rawCap}
}

// Observe adds one value.
func (h *Histogram) Observe(v float64) {
	h.Sample.Observe(v)
	if len(h.raw) < h.rawCap {
		h.raw = append(h.raw, v)
		h.dirty = true
	}
	if b := bucketOf(v); b < histBuckets {
		h.buckets[b]++
	} else {
		h.overflow++
	}
}

func bucketOf(v float64) int {
	if v < 0 {
		v = 0
	}
	// floor(log2(y)) for y >= 1 is y's unbiased IEEE-754 exponent — a bit
	// shift instead of a Log2 call, which shows up in sweep profiles because
	// Observe runs once per completed transaction.
	return int(math.Float64bits(v+1)>>52) - 1023
}

// Reset returns the histogram to its just-constructed state (same rawCap),
// keeping grown reservoir capacity.
func (h *Histogram) Reset() {
	h.Sample = Sample{}
	h.raw = h.raw[:0]
	h.buckets = [histBuckets]uint64{}
	h.overflow = 0
	h.scratch = h.scratch[:0]
	h.dirty = false
}

// Percentile returns the p-th percentile (0 <= p <= 100). When the raw
// reservoir holds every observation the result is exact; otherwise it falls
// back to a bucket-midpoint estimate.
func (h *Histogram) Percentile(p float64) float64 {
	if h.count == 0 {
		return 0
	}
	if uint64(len(h.raw)) == h.count {
		if h.dirty {
			h.scratch = append(h.scratch[:0], h.raw...)
			h.dirty = false
		}
		idx := int(math.Ceil(p/100*float64(len(h.scratch)))) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(h.scratch) {
			idx = len(h.scratch) - 1
		}
		return quickselect(h.scratch, idx)
	}
	// Bucket estimate: walk the dense table in index (= value) order; the
	// overflow tail, if ever reached, estimates as the observed maximum.
	target := uint64(math.Ceil(p / 100 * float64(h.count)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for k, n := range h.buckets {
		cum += n
		if cum >= target {
			lo := math.Exp2(float64(k)) - 1
			hi := math.Exp2(float64(k+1)) - 1
			return (lo + hi) / 2
		}
	}
	return h.max
}

// quickselect returns the k-th smallest element of s (0-based), partially
// reordering s in place. The result is exactly the value a full sort would
// leave at s[k] — the order statistic is unique, so percentiles are
// bit-identical to the sorted path this replaced — at O(n) per query
// instead of O(n log n). Hoare partition with a deterministic
// median-of-three pivot; partial order left by earlier queries only helps
// later ones, never changes their answers.
func quickselect(s []float64, k int) float64 {
	lo, hi := 0, len(s)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if s[mid] < s[lo] {
			s[mid], s[lo] = s[lo], s[mid]
		}
		if s[hi] < s[lo] {
			s[hi], s[lo] = s[lo], s[hi]
		}
		if s[hi] < s[mid] {
			s[hi], s[mid] = s[mid], s[hi]
		}
		pivot := s[mid]
		i, j := lo, hi
		for i <= j {
			for s[i] < pivot {
				i++
			}
			for s[j] > pivot {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return s[k]
		}
	}
	return s[k]
}

// GeoMean returns the geometric mean of xs, ignoring non-positive entries
// (matching the paper's geometric-mean speedups). An empty input returns 0.
func GeoMean(xs []float64) float64 {
	var logSum float64
	var n int
	for _, x := range xs {
		if x > 0 {
			logSum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// Speedups divides each runtime in base position by the corresponding config
// runtime: speedup[i] = baseline / runtimes[i].
func Speedups(baseline float64, runtimes []float64) []float64 {
	out := make([]float64, len(runtimes))
	for i, r := range runtimes {
		if r > 0 {
			out[i] = baseline / r
		}
	}
	return out
}

// Table is a simple fixed-column text table used by the sweep harness to
// print paper figures as rows. It right-aligns numeric cells.
type Table struct {
	Header []string
	Rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{Header: header} }

// AddRow appends a row; cells beyond the header width are dropped.
func (t *Table) AddRow(cells ...string) {
	if len(cells) > len(t.Header) {
		cells = cells[:len(t.Header)]
	}
	t.Rows = append(t.Rows, cells)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i := range t.Header {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			if i == 0 {
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			} else {
				fmt.Fprintf(&b, "  %*s", widths[i], c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i == 0 {
			b.WriteString(strings.Repeat("-", w))
		} else {
			b.WriteString("  " + strings.Repeat("-", w))
		}
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// FormatTBs formats a bytes-per-second value as terabytes per second.
func FormatTBs(bytesPerSec float64) string {
	return fmt.Sprintf("%.2f", bytesPerSec/1e12)
}
