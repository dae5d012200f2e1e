package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"github.com/freegap/freegap/internal/store"
)

// benchRecorder is a reusable http.ResponseWriter for benchmark loops. The
// stock httptest.NewRecorder costs ~5KB and a dozen allocations per request
// — client-side harness noise that used to dominate the per-op numbers —
// whereas resetting one recorder per goroutine keeps the measurement on the
// serving path itself.
type benchRecorder struct {
	hdr  http.Header
	code int
	body bytes.Buffer
}

func newBenchRecorder() *benchRecorder { return &benchRecorder{hdr: make(http.Header, 4)} }

func (r *benchRecorder) Header() http.Header { return r.hdr }

func (r *benchRecorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *benchRecorder) Write(p []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.body.Write(p)
}

func (r *benchRecorder) reset() {
	r.code = 0
	r.body.Reset()
	clear(r.hdr)
}

// BenchmarkServerParallelManyTenants is the multi-core scaling benchmark: 64
// tenants hammered by parallel clients (GOMAXPROCS × b.SetParallelism), each
// request picking its tenant round-robin, so the clients contend on the
// tenant registry, the shared telemetry series and (64 ways) the tenants'
// accountants. The "inline" variant ships a 256-item answer vector per
// request; the "resolved" variant names a catalogued dataset, so the
// request body is tiny and the serving cost is pure dispatch + charge +
// mechanism. Each client goroutine reuses one request
// value, one body reader and one response recorder — only the body reader is
// re-armed per iteration (the server wraps and consumes r.Body every
// request) — so the reported B/op and allocs/op are the serving path's, not
// the httptest harness's.
func BenchmarkServerParallelManyTenants(b *testing.B) {
	const tenants = 64
	answers := benchAnswers(256)

	// One pre-marshalled body per tenant, so the benchmark loop does no
	// JSON encoding of its own.
	inlineBodies := make([][]byte, tenants)
	for t := 0; t < tenants; t++ {
		body, err := json.Marshal(TopKRequest{
			Common: Common{Tenant: fmt.Sprintf("tenant-%02d", t), Epsilon: 0.01, Answers: answers, Monotonic: true},
			K:      5,
		})
		if err != nil {
			b.Fatal(err)
		}
		inlineBodies[t] = body
	}
	resolvedBodies := make([][]byte, tenants)
	for t := 0; t < tenants; t++ {
		resolvedBodies[t] = []byte(fmt.Sprintf(
			`{"tenant":"tenant-%02d","epsilon":0.01,"k":5,"dataset":"pos","queries":{"kind":"all_items"}}`, t))
	}

	run := func(b *testing.B, bodies [][]byte, withDataset bool) {
		s := mustServer(b, Config{TenantBudget: benchBudget, Seed: 1})
		if withDataset {
			db, err := store.GenerateSynthetic("bmspos", 200, 7)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := s.RegisterDataset("pos", "synthetic:bmspos", db); err != nil {
				b.Fatal(err)
			}
		}
		h := s.Handler()
		var next atomic.Uint64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			// Each goroutine walks the tenant ring from its own offset so
			// concurrent requests spread across tenants, the many-tenant
			// contention profile a production server sees.
			i := next.Add(1)
			var rd bytes.Reader
			req := httptest.NewRequest(http.MethodPost, "/v1/topk", nil)
			w := newBenchRecorder()
			for pb.Next() {
				body := bodies[i%tenants]
				i++
				rd.Reset(body)
				req.Body = io.NopCloser(&rd)
				req.ContentLength = int64(len(body))
				w.reset()
				h.ServeHTTP(w, req)
				if w.code != http.StatusOK {
					b.Fatalf("status = %d, body = %s", w.code, w.body.String())
				}
			}
		})
	}

	b.Run("inline", func(b *testing.B) { run(b, inlineBodies, false) })
	b.Run("resolved", func(b *testing.B) { run(b, resolvedBodies, true) })
}
