package telemetry

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBucketIndex(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{1, 0},
		{time.Microsecond, 0},
		{time.Microsecond + 1, 1},
		{2 * time.Microsecond, 1},
		{3 * time.Microsecond, 2},
		{4 * time.Microsecond, 2},
		{5 * time.Microsecond, 3},
		{time.Millisecond, 10},
		{time.Second, 20},
		{8 * time.Second, 23},
		{9 * time.Second, numHistBuckets},
		{time.Hour, numHistBuckets},
	}
	for _, c := range cases {
		if got := bucketIndex(c.d); got != c.want {
			t.Errorf("bucketIndex(%v) = %d, want %d", c.d, got, c.want)
		}
	}
	// Every bucket bound must map to its own bucket (le is inclusive).
	for i := 0; i < numHistBuckets; i++ {
		d := time.Duration(uint64(1)<<i) * time.Microsecond
		if got := bucketIndex(d); got != i {
			t.Errorf("bucketIndex(%v) = %d, want %d (own bound)", d, got, i)
		}
	}
}

// TestHistogramConcurrentStress hammers one histogram from many goroutines
// under -race and then checks its bucket counters, sum and count are EXACT
// against the serially computed reference — concurrent atomic adds must
// lose or double-count nothing.
func TestHistogramConcurrentStress(t *testing.T) {
	const (
		goroutines = 16
		perG       = 5000
	)
	h := NewHistogram()
	ref := NewHistogram() // serial reference, filled after the fact

	obs := func(g, i int) time.Duration {
		// Deterministic spread over several buckets, including +Inf.
		return time.Duration((g*perG+i)%9_000_000) * 3 * time.Microsecond
	}

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(obs(g, i))
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		for i := 0; i < perG; i++ {
			ref.Observe(obs(g, i))
		}
	}

	gotCum, gotSum, gotCount := h.Snapshot()
	wantCum, wantSum, wantCount := ref.Snapshot()
	if gotCount != wantCount || gotCount != goroutines*perG {
		t.Fatalf("count = %d, want %d", gotCount, wantCount)
	}
	if gotSum != wantSum {
		t.Fatalf("sum = %v, want %v", gotSum, wantSum)
	}
	if gotCum != wantCum {
		t.Fatalf("cumulative buckets = %v, want %v", gotCum, wantCum)
	}
	if gotCum[numHistBuckets] != gotCount {
		t.Fatalf("+Inf bucket %d != count %d", gotCum[numHistBuckets], gotCount)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 100; i++ {
		h.Observe(time.Duration(i+1) * 100 * time.Microsecond) // 0.1ms .. 10ms
	}
	p50 := h.Quantile(0.50)
	p99 := h.Quantile(0.99)
	if p50 <= 0 || p99 < p50 {
		t.Fatalf("quantiles not ordered: p50=%v p99=%v", p50, p99)
	}
	// p50 of 0.1..10ms is ~5ms; the covering bucket bound is 8.192ms.
	if p50 > 0.009 {
		t.Fatalf("p50 = %v, want <= 8.192ms bucket bound", p50)
	}
}

// TestWritePrometheusHistogram checks the rendered exposition block: TYPE
// header, cumulative non-decreasing buckets with the le label spliced into
// existing labels, a trailing +Inf equal to _count, and _sum in seconds.
func TestWritePrometheusHistogram(t *testing.T) {
	set := NewCounterSet()
	set.Help("req_seconds", "request latency.")
	h := set.Histogram("req_seconds", L("mechanism", "topk"))
	h.Observe(3 * time.Microsecond)
	h.Observe(100 * time.Millisecond)
	set.FloatGauge("remaining", L("tenant", "acme")).Set(2.5)

	var b strings.Builder
	if err := set.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP req_seconds request latency.\n",
		"# TYPE req_seconds histogram\n",
		`req_seconds_bucket{mechanism="topk",le="+Inf"} 2`,
		`req_seconds_count{mechanism="topk"} 2`,
		`req_seconds_sum{mechanism="topk"} 0.100003`,
		"# TYPE remaining gauge\n",
		`remaining{tenant="acme"} 2.5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	// Bucket counts must be cumulative (non-decreasing in le order) and the
	// whole output must be parseable line by line.
	var last uint64
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		if strings.HasPrefix(line, "req_seconds_bucket{") {
			var n uint64
			if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &n); err != nil {
				t.Fatalf("bad bucket line %q: %v", line, err)
			}
			if n < last {
				t.Fatalf("bucket counts not cumulative at %q", line)
			}
			last = n
		}
		val := line[strings.LastIndexByte(line, ' ')+1:]
		if _, err := strconv.ParseFloat(val, 64); err != nil {
			t.Fatalf("unparsable value in line %q: %v", line, err)
		}
	}
}
