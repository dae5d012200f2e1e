package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one traced call: its name, when it started and ended (ns since
// the replay began), the span that caused it and the op it belongs to
// (-1 for set-up).
type span struct {
	ID     int32  `json:"id"`
	Op     int32  `json:"op"`
	Name   string `json:"name"`
	Parent int32  `json:"parent"` // -1 at an op's root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out once the replay ends.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int32
	op    int32
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity), op: -1}
}

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) int32 {
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Op: t.op, Name: name, Parent: parent, Start: time.Since(t.t0).Nanoseconds()})
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, which must be the innermost open one.
func (t *tracer) end(id int32) {
	t.spans[id].End = time.Since(t.t0).Nanoseconds()
	t.stack = t.stack[:len(t.stack)-1]
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// durations returns, per span name, the total and self durations in µs of
// the spans accepted by keep. Self time is a span's duration minus the
// durations of its children.
func (t *tracer) durations(keep func(*span) bool) (total, self map[string][]float64) {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	total, self = map[string][]float64{}, map[string][]float64{}
	for i := range t.spans {
		s := &t.spans[i]
		if !keep(s) {
			continue
		}
		d := s.End - s.Start
		total[s.Name] = append(total[s.Name], float64(d)/1e3)
		self[s.Name] = append(self[s.Name], float64(d-child[i])/1e3)
	}
	return total, self
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
