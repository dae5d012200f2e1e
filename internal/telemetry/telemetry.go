// Package telemetry holds the serving-side observability primitives —
// counters, gauges and the Prometheus-text registry that renders them. It is
// deliberately separate from internal/metrics, which implements the paper's
// Section 7 evaluation metrics (MSE, precision, recall): one package is about
// operating the service, the other about measuring mechanism quality.
package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter safe for concurrent use: the
// dpserver increments counters on its hot path and exposes them in the
// Prometheus text exposition format. The zero value is ready to use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n to the counter.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down, safe for concurrent use (e.g.
// in-flight requests). The zero value is ready to use.
type Gauge struct {
	v atomic.Int64
}

// Inc adds one to the gauge.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one from the gauge.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Label is one key="value" pair attached to a counter or gauge series.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// CounterSet is a registry of named counter and gauge series that renders
// itself in the Prometheus text exposition format. Series are created on
// first use and retrieved by (name, labels) afterwards, so hot paths can
// cache the returned pointer and pay only an atomic add per event.
type CounterSet struct {
	mu          sync.Mutex
	counters    map[string]*Counter
	gauges      map[string]*Gauge
	floatGauges map[string]*FloatGauge
	histograms  map[string]*Histogram
	valueHists  map[string]*ValueHistogram
	names       []string // registration order of fully-qualified series keys
	kinds       map[string]string
	help        map[string]string // keyed by bare metric name
}

// NewCounterSet returns an empty registry.
func NewCounterSet() *CounterSet {
	return &CounterSet{
		counters:    make(map[string]*Counter),
		gauges:      make(map[string]*Gauge),
		floatGauges: make(map[string]*FloatGauge),
		histograms:  make(map[string]*Histogram),
		valueHists:  make(map[string]*ValueHistogram),
		kinds:       make(map[string]string),
		help:        make(map[string]string),
	}
}

// Help registers a HELP string for the given bare metric name, emitted once
// above the metric's series in WritePrometheus.
func (s *CounterSet) Help(name, help string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.help[name] = help
}

// Counter returns the counter series with the given name and labels, creating
// it at zero on first use.
func (s *CounterSet) Counter(name string, labels ...Label) *Counter {
	key := seriesKey(name, labels)
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.counters[key]; ok {
		return c
	}
	c := &Counter{}
	s.counters[key] = c
	s.names = append(s.names, key)
	s.kinds[key] = "counter"
	return c
}

// Gauge returns the gauge series with the given name and labels, creating it
// at zero on first use.
func (s *CounterSet) Gauge(name string, labels ...Label) *Gauge {
	key := seriesKey(name, labels)
	s.mu.Lock()
	defer s.mu.Unlock()
	if g, ok := s.gauges[key]; ok {
		return g
	}
	g := &Gauge{}
	s.gauges[key] = g
	s.names = append(s.names, key)
	s.kinds[key] = "gauge"
	return g
}

// FloatGauge returns the float-valued gauge series with the given name and
// labels, creating it at zero on first use. It renders as a gauge.
func (s *CounterSet) FloatGauge(name string, labels ...Label) *FloatGauge {
	key := seriesKey(name, labels)
	s.mu.Lock()
	defer s.mu.Unlock()
	if g, ok := s.floatGauges[key]; ok {
		return g
	}
	g := &FloatGauge{}
	s.floatGauges[key] = g
	s.names = append(s.names, key)
	s.kinds[key] = "gauge"
	return g
}

// Histogram returns the latency histogram series with the given name and
// labels, creating it empty on first use. Hot paths should cache the
// returned pointer; an observation is then three atomic adds.
func (s *CounterSet) Histogram(name string, labels ...Label) *Histogram {
	key := seriesKey(name, labels)
	s.mu.Lock()
	defer s.mu.Unlock()
	if h, ok := s.histograms[key]; ok {
		return h
	}
	h := NewHistogram()
	s.histograms[key] = h
	s.names = append(s.names, key)
	s.kinds[key] = "histogram"
	return h
}

// ValueHistogram returns the small-integer value histogram series with the
// given name and labels, creating it empty on first use. It renders as a
// histogram with power-of-two value buckets (le 1, 2, 4, …).
func (s *CounterSet) ValueHistogram(name string, labels ...Label) *ValueHistogram {
	key := seriesKey(name, labels)
	s.mu.Lock()
	defer s.mu.Unlock()
	if h, ok := s.valueHists[key]; ok {
		return h
	}
	h := NewValueHistogram()
	s.valueHists[key] = h
	s.names = append(s.names, key)
	s.kinds[key] = "histogram"
	return h
}

// Remove deletes the series with the given name and labels from the
// registry, whatever its kind; later use of the same (name, labels)
// recreates it at zero. It exists so scrape-time samplers can retire series
// for entities that no longer exist (e.g. per-tenant gauges) instead of
// holding their label cardinality forever. Callers that cached the series
// pointer keep a working but unrendered instance.
func (s *CounterSet) Remove(name string, labels ...Label) {
	key := seriesKey(name, labels)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.kinds[key]; !ok {
		return
	}
	delete(s.counters, key)
	delete(s.gauges, key)
	delete(s.floatGauges, key)
	delete(s.histograms, key)
	delete(s.valueHists, key)
	delete(s.kinds, key)
	for i, k := range s.names {
		if k == key {
			s.names = append(s.names[:i], s.names[i+1:]...)
			break
		}
	}
}

// WritePrometheus renders every registered series in the Prometheus text
// exposition format, grouped by metric name with TYPE (and optional HELP)
// headers, in a deterministic order.
func (s *CounterSet) WritePrometheus(w io.Writer) error {
	s.mu.Lock()
	keys := append([]string(nil), s.names...)
	kinds := make(map[string]string, len(keys))
	values := make(map[string]string, len(keys))
	hists := make(map[string]*Histogram)
	valueHists := make(map[string]*ValueHistogram)
	for _, k := range keys {
		kinds[k] = s.kinds[k]
		if c, ok := s.counters[k]; ok {
			values[k] = fmt.Sprintf("%d", c.Value())
		} else if g, ok := s.gauges[k]; ok {
			values[k] = fmt.Sprintf("%d", g.Value())
		} else if g, ok := s.floatGauges[k]; ok {
			values[k] = formatFloat(g.Value())
		} else if h, ok := s.histograms[k]; ok {
			hists[k] = h
		} else if h, ok := s.valueHists[k]; ok {
			valueHists[k] = h
		}
	}
	help := make(map[string]string, len(s.help))
	for k, v := range s.help {
		help[k] = v
	}
	s.mu.Unlock()

	sort.Strings(keys)
	headered := make(map[string]bool)
	for _, k := range keys {
		name := bareName(k)
		if !headered[name] {
			headered[name] = true
			if h, ok := help[name]; ok {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, h); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, kinds[k]); err != nil {
				return err
			}
		}
		if h, ok := hists[k]; ok {
			if err := writeHistogram(w, k, h); err != nil {
				return err
			}
			continue
		}
		if h, ok := valueHists[k]; ok {
			if err := writeValueHistogram(w, k, h); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintf(w, "%s %s\n", k, values[k]); err != nil {
			return err
		}
	}
	return nil
}

// seriesKey renders name{k1="v1",k2="v2"} with labels sorted by key so the
// same logical series always maps to the same map entry.
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

func bareName(key string) string {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i]
	}
	return key
}
