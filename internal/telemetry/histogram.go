package telemetry

// Latency histograms for the serving hot path. Buckets are fixed —
// exponential base-2 bounds from 1µs to ~8.4s — which keeps an observation
// three atomic adds with no allocation, comparison loop, or lock.

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"strconv"
	"sync/atomic"
	"time"
)

// numHistBuckets is the number of finite buckets; bucket i has upper bound
// 2^i microseconds, so the bounds run 1µs, 2µs, 4µs, … ~8.4s. Observations
// beyond the last bound land in the implicit +Inf bucket.
const numHistBuckets = 24

// histBounds holds the bucket upper bounds in seconds, and histBoundLabels
// their Prometheus le label values, both precomputed once.
var (
	histBounds      [numHistBuckets]float64
	histBoundLabels [numHistBuckets]string
)

func init() {
	for i := 0; i < numHistBuckets; i++ {
		histBounds[i] = float64(uint64(1)<<i) / 1e6
		histBoundLabels[i] = strconv.FormatFloat(histBounds[i], 'g', -1, 64)
	}
}

// Histogram is a fixed-bucket latency histogram safe for concurrent use:
// per-bucket counts plus the running nanosecond sum and observation count,
// the same layout as ValueHistogram. The zero value is ready to use.
type Histogram struct {
	counts [numHistBuckets + 1]atomic.Uint64 // counts[numHistBuckets] is +Inf
	sum    atomic.Int64                      // total observed nanoseconds
	count  atomic.Uint64
}

// NewHistogram returns an empty latency histogram with the package's fixed
// exponential bucket layout.
func NewHistogram() *Histogram { return &Histogram{} }

// bucketIndex maps a duration to its bucket: the smallest i with
// d <= 2^i µs, or numHistBuckets for observations past the last bound.
func bucketIndex(d time.Duration) int {
	ns := int64(d)
	if ns <= 1000 {
		return 0
	}
	// Ceil to whole microseconds, then the bucket is the bit length of
	// (µs − 1): 2µs → 1, 3µs → 2, 4µs → 2, 5µs → 3, …
	us := uint64(ns+999) / 1000
	i := bits.Len64(us - 1)
	if i > numHistBuckets {
		return numHistBuckets
	}
	return i
}

// Observe records one latency observation. Negative durations are clamped
// to zero (a clock anomaly should not corrupt the sum).
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketIndex(d)].Add(1)
	h.sum.Add(int64(d))
	h.count.Add(1)
}

// Snapshot returns the cumulative bucket counts (last entry is the +Inf
// bucket, equal to the total count), the summed observation time, and the
// observation count.
func (h *Histogram) Snapshot() (cumulative [numHistBuckets + 1]uint64, sum time.Duration, count uint64) {
	var cum uint64
	for b := range h.counts {
		cum += h.counts[b].Load()
		cumulative[b] = cum
	}
	return cumulative, time.Duration(h.sum.Load()), h.count.Load()
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the total observed time.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Quantile returns an upper bound for the q-quantile (0 ≤ q ≤ 1) of the
// observed distribution: the upper bound of the bucket the quantile falls
// in (+Inf reports the last finite bound). It is a scrape-side convenience
// for tests and CLIs, not a hot-path operation.
func (h *Histogram) Quantile(q float64) float64 {
	cum, _, count := h.Snapshot()
	if count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(count)))
	if rank == 0 {
		rank = 1
	}
	for b, c := range cum {
		if c >= rank {
			if b >= numHistBuckets {
				break
			}
			return histBounds[b]
		}
	}
	return histBounds[numHistBuckets-1]
}

// writeHistogram renders one histogram series block in the Prometheus text
// exposition format: cumulative name_bucket lines with an le label appended
// to the series labels, then name_sum and name_count.
func writeHistogram(w io.Writer, key string, h *Histogram) error {
	cum, sum, count := h.Snapshot()
	name, labels := splitSeriesKey(key)
	for b, c := range cum {
		le := "+Inf"
		if b < numHistBuckets {
			le = histBoundLabels[b]
		}
		if err := writeBucketLine(w, name, labels, le, c); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatFloat(sum.Seconds())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, labels, count)
	return err
}

func writeBucketLine(w io.Writer, name, labels, le string, c uint64) error {
	if labels == "" {
		_, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, le, c)
		return err
	}
	// labels is "{k=\"v\",...}": splice the le pair before the closing brace.
	_, err := fmt.Fprintf(w, "%s_bucket%s,le=%q} %d\n", name, labels[:len(labels)-1], le, c)
	return err
}

// splitSeriesKey splits a series key into its bare name and the literal
// label block (including braces), which is empty for unlabelled series.
func splitSeriesKey(key string) (name, labels string) {
	for i := 0; i < len(key); i++ {
		if key[i] == '{' {
			return key[:i], key[i:]
		}
	}
	return key, ""
}

// formatFloat renders a float metric value in the Prometheus text format.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// FloatGauge is a float-valued gauge for administratively-sampled values
// (e.g. a tenant's remaining ε, sampled at scrape time). The zero value is
// ready to use.
type FloatGauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *FloatGauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current gauge value.
func (g *FloatGauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }
