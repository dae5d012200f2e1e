package telemetry

// Small-integer value histograms. The latency Histogram's buckets start at
// 1µs — useless for distributions like "how many workers did this scan fan
// out to", where the interesting values are 1..64. ValueHistogram keeps the
// same cumulative-bucket exposition but with power-of-two value bounds
// (le 1, 2, 4, … 64, +Inf).

import (
	"fmt"
	"io"
	"math/bits"
	"strconv"
	"sync/atomic"
)

// numValueBuckets is the number of finite buckets; bucket i has upper bound
// 2^i, so the bounds run 1, 2, 4, … 64. Larger observations land in the
// implicit +Inf bucket.
const numValueBuckets = 7

var valueBoundLabels = func() [numValueBuckets]string {
	var labels [numValueBuckets]string
	for i := range labels {
		labels[i] = strconv.Itoa(1 << i)
	}
	return labels
}()

// ValueHistogram is a fixed-bucket histogram of small non-negative integer
// values, safe for concurrent use. The zero value is ready to use.
type ValueHistogram struct {
	counts [numValueBuckets + 1]atomic.Uint64 // counts[numValueBuckets] is +Inf
	sum    atomic.Uint64
	count  atomic.Uint64
}

// NewValueHistogram returns an empty value histogram.
func NewValueHistogram() *ValueHistogram { return &ValueHistogram{} }

// valueBucketIndex maps v to the smallest bucket i with v <= 2^i, or
// numValueBuckets past the last bound. Negative values clamp to zero.
func valueBucketIndex(v int) int {
	if v <= 1 {
		return 0
	}
	i := bits.Len64(uint64(v) - 1)
	if i > numValueBuckets {
		return numValueBuckets
	}
	return i
}

// Observe records one value. Negative values are clamped to zero.
func (h *ValueHistogram) Observe(v int) {
	if v < 0 {
		v = 0
	}
	h.counts[valueBucketIndex(v)].Add(1)
	h.sum.Add(uint64(v))
	h.count.Add(1)
}

// Snapshot returns the cumulative bucket counts (last entry is the +Inf
// bucket, equal to the total count), the sum of observed values, and the
// observation count.
func (h *ValueHistogram) Snapshot() (cumulative [numValueBuckets + 1]uint64, sum, count uint64) {
	var cum uint64
	for b := range h.counts {
		cum += h.counts[b].Load()
		cumulative[b] = cum
	}
	return cumulative, h.sum.Load(), h.count.Load()
}

// Count returns the number of observations.
func (h *ValueHistogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *ValueHistogram) Sum() uint64 { return h.sum.Load() }

// writeValueHistogram renders one value-histogram series block in the
// Prometheus text exposition format, mirroring writeHistogram.
func writeValueHistogram(w io.Writer, key string, h *ValueHistogram) error {
	cum, sum, count := h.Snapshot()
	name, labels := splitSeriesKey(key)
	for b, c := range cum {
		le := "+Inf"
		if b < numValueBuckets {
			le = valueBoundLabels[b]
		}
		if err := writeBucketLine(w, name, labels, le, c); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %d\n", name, labels, sum); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, labels, count)
	return err
}
