package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/freegap/freegap/internal/core"
	"github.com/freegap/freegap/internal/dataset"
	"github.com/freegap/freegap/internal/persist"
	"github.com/freegap/freegap/internal/store"
)

// Server hot-path benchmarks: requests are driven straight through the
// handler (no TCP) so the numbers isolate decode → validate → charge →
// mechanism → encode. Tenants get an effectively unlimited budget so the
// accountant never rejects.

const benchBudget = 1e18

func benchAnswers(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64((i*2654435761)%10000) / 3
	}
	return out
}

func mustServer(b *testing.B, cfg Config) *Server {
	b.Helper()
	s, err := New(cfg)
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	b.Cleanup(s.Close)
	return s
}

func BenchmarkServerTopK(b *testing.B) {
	s := mustServer(b, Config{TenantBudget: benchBudget, Seed: 1, Workers: 1})
	body, err := json.Marshal(TopKRequest{Common: Common{Tenant: "bench", Epsilon: 0.1, Answers: benchAnswers(1024), Monotonic: true}, K: 10})
	if err != nil {
		b.Fatal(err)
	}
	h := s.Handler()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/topk", bytes.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status = %d, body = %s", w.Code, w.Body.String())
		}
	}
}

func BenchmarkServerSVTParallel(b *testing.B) {
	s := mustServer(b, Config{TenantBudget: benchBudget, Seed: 1})
	body, err := json.Marshal(SVTRequest{Common: Common{Tenant: "bench", Epsilon: 0.1, Answers: benchAnswers(1024), Monotonic: true}, K: 5, Threshold: 1500, Adaptive: true})
	if err != nil {
		b.Fatal(err)
	}
	h := s.Handler()

	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			req := httptest.NewRequest(http.MethodPost, "/v1/svt", bytes.NewReader(body))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				b.Fatalf("status = %d, body = %s", w.Code, w.Body.String())
			}
		}
	})
}

func BenchmarkServerMax(b *testing.B) {
	s := mustServer(b, Config{TenantBudget: benchBudget, Seed: 1, Workers: 1})
	body, err := json.Marshal(MaxRequest{Common: Common{Tenant: "bench", Epsilon: 0.1, Answers: benchAnswers(1024), Monotonic: true}})
	if err != nil {
		b.Fatal(err)
	}
	h := s.Handler()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/max", bytes.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status = %d, body = %s", w.Code, w.Body.String())
		}
	}
}

// BenchmarkServerBatch compares N requests issued as N serial round trips
// against the same N requests in one POST /v1/batch: the batch pays one
// decode/charge/encode plus a single accountant transaction instead of N.
func BenchmarkServerBatch(b *testing.B) {
	const n = 16
	answers := benchAnswers(1024)

	serialBody, err := json.Marshal(MaxRequest{
		Common: Common{Tenant: "bench", Epsilon: 0.1, Answers: answers, Monotonic: true},
	})
	if err != nil {
		b.Fatal(err)
	}
	batch := BatchRequest{Tenant: "bench"}
	itemBody, err := json.Marshal(MaxRequest{
		Common: Common{Epsilon: 0.1, Answers: answers, Monotonic: true},
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		batch.Requests = append(batch.Requests, BatchItem{Mechanism: "max", Request: itemBody})
	}
	batchBody, err := json.Marshal(batch)
	if err != nil {
		b.Fatal(err)
	}

	post := func(b *testing.B, h http.Handler, path string, body []byte) {
		b.Helper()
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status = %d, body = %s", w.Code, w.Body.String())
		}
	}

	b.Run("serial", func(b *testing.B) {
		s := mustServer(b, Config{TenantBudget: benchBudget, Seed: 1, Workers: 1})
		h := s.Handler()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < n; j++ {
				post(b, h, "/v1/max", serialBody)
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		s := mustServer(b, Config{TenantBudget: benchBudget, Seed: 1, Workers: 1, MaxBatch: n})
		h := s.Handler()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(b, h, "/v1/batch", batchBody)
		}
	})
}

// BenchmarkServerResolvedTopK compares the two ways a top-k selection can be
// driven: "inline" ships the precomputed answer vector with every request
// (the client-side trust model — each request pays to decode the full JSON
// array), "resolved" names a catalogued dataset and an all_items query spec
// (the paper's curator model — a tiny request body answered from the item
// counts the store precomputed once at registration, with no per-request
// transaction rescans). The gap between the two is the cached-counts win.
func BenchmarkServerResolvedTopK(b *testing.B) {
	db, err := store.GenerateSynthetic("bmspos", 100, 7)
	if err != nil {
		b.Fatal(err)
	}
	newServerWithDataset := func(b *testing.B) *Server {
		b.Helper()
		s := mustServer(b, Config{TenantBudget: benchBudget, Seed: 1, Workers: 1})
		if _, err := s.RegisterDataset("pos", "synthetic:bmspos", db); err != nil {
			b.Fatal(err)
		}
		return s
	}

	post := func(b *testing.B, h http.Handler, body []byte) {
		b.Helper()
		req := httptest.NewRequest(http.MethodPost, "/v1/topk", bytes.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status = %d, body = %s", w.Code, w.Body.String())
		}
	}

	b.Run("inline", func(b *testing.B) {
		s := newServerWithDataset(b)
		// What a client in the old trust model would send: the full
		// item-count vector, recomputed here once and decoded per request.
		body, err := json.Marshal(TopKRequest{
			Common: Common{Tenant: "bench", Epsilon: 0.1, Answers: db.ItemCounts(), Monotonic: true},
			K:      10,
		})
		if err != nil {
			b.Fatal(err)
		}
		h := s.Handler()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(b, h, body)
		}
	})
	b.Run("resolved", func(b *testing.B) {
		s := newServerWithDataset(b)
		body := []byte(`{"tenant":"bench","epsilon":0.1,"k":10,"dataset":"pos","queries":{"kind":"all_items"}}`)
		h := s.Handler()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(b, h, body)
		}
		b.StopTimer()
		// The benchmark's claim, enforced: b.N resolved requests performed
		// exactly one transaction scan (the registration precompute).
		entry, err := s.Datasets().Get("pos")
		if err != nil {
			b.Fatal(err)
		}
		if got := entry.CountScans(); got != 1 {
			b.Fatalf("CountScans = %d after %d resolved requests, want 1", got, b.N)
		}
	})
	// "lazy" is "resolved" at ε = 1, where core's lazy sampler takes the
	// vector: with noise scale s (k/ε for a monotone top-k), the sampler's
	// level is c₍ₖ₊₁₎ − 8s and its head cutoff 10s below that, and its tail
	// probe needs one of 16 evenly spaced answers under the cutoff
	// (internal/core/lazy.go). At "resolved"'s ε = 0.1 the cutoff is far
	// below every count, so that vector runs dense.
	b.Run("lazy", func(b *testing.B) {
		counts := db.ItemCounts()
		m := core.TopKWithGap{K: 10, Epsilon: 1, Monotonic: true}
		head := dataset.KthLargest(counts, m.K+1) - 18*m.NoiseScale()
		tail := false
		for i := 0; i < len(counts); i += max(len(counts)/16, 1) {
			tail = tail || counts[i] < head
		}
		if !m.SamplesLazily(len(counts)) || !tail {
			b.Fatalf("top-%d at ε = %v over %d counts would run dense (head cutoff %.0f)", m.K, m.Epsilon, len(counts), head)
		}
		s := newServerWithDataset(b)
		body := []byte(`{"tenant":"bench","epsilon":1,"k":10,"dataset":"pos","queries":{"kind":"all_items"}}`)
		h := s.Handler()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(b, h, body)
		}
	})
}

// BenchmarkServerTopKPersist runs the exact BenchmarkServerTopK workload
// against a server journalling every charge into a WAL, in the three fsync
// modes. The acceptance bar is "memory" vs "persist/batch" (the default
// mode): group fsync keeps the journal append off the request critical path,
// so the persisted hot path must stay within ~10% of the in-memory baseline.
// "persist/always" shows what per-charge fsync costs instead.
func BenchmarkServerTopKPersist(b *testing.B) {
	body, err := json.Marshal(TopKRequest{Common: Common{Tenant: "bench", Epsilon: 0.1, Answers: benchAnswers(1024), Monotonic: true}, K: 10})
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, cfg Config) {
		s := mustServer(b, cfg)
		h := s.Handler()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			req := httptest.NewRequest(http.MethodPost, "/v1/topk", bytes.NewReader(body))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				b.Fatalf("status = %d, body = %s", w.Code, w.Body.String())
			}
		}
	}

	b.Run("memory", func(b *testing.B) {
		run(b, Config{TenantBudget: benchBudget, Seed: 1, Workers: 1})
	})
	for _, mode := range []persist.FsyncMode{persist.FsyncBatch, persist.FsyncAlways, persist.FsyncOff} {
		b.Run("persist/"+string(mode), func(b *testing.B) {
			lg, err := persist.Open(b.TempDir(), persist.Options{Fsync: mode})
			if err != nil {
				b.Fatal(err)
			}
			run(b, Config{TenantBudget: benchBudget, Seed: 1, Workers: 1, Persist: lg})
		})
	}
}

// BenchmarkServerFilteredQuery drives a composite filter spec through the
// query compiler on multi-block datasets. "selective" matches a single
// block of a clustered dataset, so the item's empty posting lists skip ~97%
// of the records; "noskip" is the same query with skipping disabled (the
// denominator of the ≥5× skipping claim); "unselective" is the adversarial
// shape where every record matches and a posting walk can only lose to a
// plain scan; "zipf" is the paper's shape, where every block holds the item
// in a few records and the walk reads only those. "zipf-length" intersects
// that item filter with a length-only filter at the median record length,
// which adds the rows of the record-length table and scans only the
// partial tail block. "cold" resets the plan cache every iteration so each
// request compiles and scans (the item postings and the record-length
// table, built by the first iteration, stay); "warm" serves the cached
// vector — the compiled-plan cache hit path.
func BenchmarkServerFilteredQuery(b *testing.B) {
	const blocks = 32
	clustered := make([][]int32, 0, blocks*dataset.BlockRecords)
	for blk := 0; blk < blocks; blk++ {
		base := int32(blk * 8)
		for i := 0; i < dataset.BlockRecords; i++ {
			clustered = append(clustered, []int32{base, base + int32(i%8)})
		}
	}
	uniform := make([][]int32, blocks*dataset.BlockRecords)
	for i := range uniform {
		uniform[i] = []int32{0, int32(1 + i%200)}
	}

	selectiveBody := []byte(`{"tenant":"bench","epsilon":0.1,"k":5,"dataset":"blocks","queries":{"kind":"filter","where":{"contains":[200]}}}`)
	unselectiveBody := []byte(`{"tenant":"bench","epsilon":0.1,"k":5,"dataset":"blocks","queries":{"kind":"filter","where":{"contains":[0]}}}`)

	// The paper's shape: BMS-POS-like records (25 full blocks), each block
	// holding thousands of distinct items, filtered on the 20th most counted
	// item, which most blocks hold in a few dozen records.
	pos, err := store.GenerateSynthetic("bmspos", 10, 3)
	if err != nil {
		b.Fatal(err)
	}
	zipf := make([][]int32, pos.NumRecords())
	for i := range zipf {
		zipf[i] = pos.Record(i)
	}
	item := dataset.TopKItems(pos.ItemCounts(), 20)[19]
	zipfBody := []byte(fmt.Sprintf(`{"tenant":"bench","epsilon":0.1,"k":5,"dataset":"blocks","queries":{"kind":"filter","where":{"contains":[%d]}}}`, item))
	lengths := make([]int, len(zipf))
	for i, rec := range zipf {
		lengths[i] = len(rec)
	}
	slices.Sort(lengths)
	zipfLengthBody := []byte(fmt.Sprintf(`{"tenant":"bench","epsilon":0.1,"k":5,"dataset":"blocks","queries":{"kind":"intersect","of":[`+
		`{"kind":"filter","where":{"contains":[%d]}},{"kind":"filter","where":{"min_len":%d}}]}}`, item, lengths[len(lengths)/2]))

	run := func(b *testing.B, cfg Config, recs [][]int32, body []byte, cold bool) {
		s := mustServer(b, cfg)
		if _, err := s.RegisterDataset("blocks", "bench:filtered", dataset.New("blocks", recs)); err != nil {
			b.Fatal(err)
		}
		entry, err := s.Datasets().Get("blocks")
		if err != nil {
			b.Fatal(err)
		}
		h := s.Handler()
		if !cold { // prime the plan cache once
			req := httptest.NewRequest(http.MethodPost, "/v1/topk", bytes.NewReader(body))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				b.Fatalf("prime status = %d, body = %s", w.Code, w.Body.String())
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if cold {
				entry.Plans().Reset()
			}
			req := httptest.NewRequest(http.MethodPost, "/v1/topk", bytes.NewReader(body))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				b.Fatalf("status = %d, body = %s", w.Code, w.Body.String())
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(entry.RecordsSkipped())/float64(b.N), "recskipped/op")
		if !cold && entry.CountScans() != 2 {
			// Registration + the priming request: warm iterations must all
			// be plan-cache hits.
			b.Fatalf("CountScans = %d after %d warm requests, want 2", entry.CountScans(), b.N)
		}
	}

	base := Config{TenantBudget: benchBudget, Seed: 1, Workers: 1}
	noskip := Config{TenantBudget: benchBudget, Seed: 1, Workers: 1, DisableQuerySkipping: true}
	b.Run("selective/cold", func(b *testing.B) { run(b, base, clustered, selectiveBody, true) })
	b.Run("selective/noskip", func(b *testing.B) { run(b, noskip, clustered, selectiveBody, true) })
	b.Run("selective/warm", func(b *testing.B) { run(b, base, clustered, selectiveBody, false) })
	b.Run("unselective/cold", func(b *testing.B) { run(b, base, uniform, unselectiveBody, true) })
	b.Run("zipf/cold", func(b *testing.B) { run(b, base, zipf, zipfBody, true) })
	b.Run("zipf-length/cold", func(b *testing.B) { run(b, base, zipf, zipfLengthBody, true) })
}

// BenchmarkDatasetAppend measures the streaming-ingest path: one small FIMI
// delta POSTed against a catalogued dataset of 65,536 and of 1,048,576
// records. The append shares every full storage block, copies the partial
// tail block, delta-maintains the count vector and sketches, and never
// rescans the resident records, so the per-append cost must stay flat in the
// dataset size: the two sub-benchmarks should read within a small factor of
// each other in both ns/op and B/op. The catalogue entry is rebuilt off the
// clock every few thousand iterations to keep the dataset from growing
// unboundedly across b.N.
func BenchmarkDatasetAppend(b *testing.B) {
	for _, size := range []int{65_536, 1_048_576} {
		b.Run(strconv.Itoa(size), func(b *testing.B) {
			recs := make([][]int32, size)
			for i := range recs {
				recs[i] = []int32{int32(i % 97)}
			}
			db := dataset.New("grow", recs)
			s := mustServer(b, Config{TenantBudget: benchBudget, Seed: 1, Workers: 1})
			register := func() {
				s.Datasets().Remove("grow")
				if _, err := s.RegisterDataset("grow", "bench:append", db); err != nil {
					b.Fatal(err)
				}
			}
			register()
			h := s.Handler()
			body := []byte(`{"fimi":"7 11\n13\n"}`)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%4096 == 4095 {
					b.StopTimer()
					register()
					b.StartTimer()
				}
				req := httptest.NewRequest(http.MethodPost, "/v1/datasets/grow/append", bytes.NewReader(body))
				w := httptest.NewRecorder()
				h.ServeHTTP(w, req)
				if w.Code != http.StatusOK {
					b.Fatalf("status = %d, body = %s", w.Code, w.Body.String())
				}
			}
			b.StopTimer()
			entry, err := s.Datasets().Get("grow")
			if err != nil {
				b.Fatal(err)
			}
			if got := entry.CountScans(); got != 1 {
				b.Fatalf("CountScans = %d after appends, want 1 (append rescanned the dataset)", got)
			}
		})
	}
}

// BenchmarkDatasetUpload measures POST /v1/datasets of a BMS-POS-shaped
// FIMI upload (1/8 of the published size, ~1.3 MB of text) on a persistent
// server: the streamed decode and parse, registration, and the blob the
// upload's text is teed into, committed (fsync off) before the WAL record.
// B/op is reported next to parsedB/op, the bytes of the parsed storage
// blocks that registration keeps: the upload holds no copy of its payload,
// so B/op should stay within a small factor of the blocks. Each iteration
// uploads under a fresh name; the dataset and its blob are removed off the
// clock.
func BenchmarkDatasetUpload(b *testing.B) {
	db, err := store.GenerateSynthetic("bmspos", 8, 1)
	if err != nil {
		b.Fatal(err)
	}
	var text bytes.Buffer
	if err := dataset.WriteFIMI(&text, db); err != nil {
		b.Fatal(err)
	}
	fimi, err := json.Marshal(text.String())
	if err != nil {
		b.Fatal(err)
	}
	head := append(append([]byte(`{"fimi":`), fimi...), `,"name":"`...)
	dir := b.TempDir()
	lg, err := persist.Open(dir, persist.Options{Fsync: persist.FsyncOff})
	if err != nil {
		b.Fatal(err)
	}
	s := mustServer(b, Config{TenantBudget: benchBudget, Seed: 1, Workers: 1, Persist: lg})
	h := s.Handler()
	b.SetBytes(int64(len(head)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := "upload" + strconv.Itoa(i)
		req := httptest.NewRequest(http.MethodPost, "/v1/datasets", io.MultiReader(bytes.NewReader(head), strings.NewReader(name+`"}`)))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusCreated {
			b.Fatalf("status = %d, body = %s", w.Code, w.Body.String())
		}
		b.StopTimer()
		s.Datasets().Remove(name)
		if err := os.Remove(filepath.Join(dir, "datasets", name+".fimi")); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(4*(db.TotalLength()+db.NumRecords())), "parsedB/op")
}

// BenchmarkFilterAfterAppend measures a warm filter query on a dataset that
// keeps taking appends, at 65,536 and at 1,048,576 records: each iteration
// POSTs a 2-record delta and then a topk over a filter spec, both through
// the handler. The plan cache carries the filter's vector across the
// append, so the query scans only the 2 new records: the per-iteration cost
// must stay flat in the dataset size, and count_scans must not move after
// the warm-up query that scanned every record. The catalogue entry is
// rebuilt (and warmed) off the clock every few thousand iterations to keep
// the dataset from growing unboundedly across b.N.
func BenchmarkFilterAfterAppend(b *testing.B) {
	appendBody := []byte(`{"fimi":"7 11\n13\n"}`)
	queryBody := []byte(`{"tenant":"bench","epsilon":0.1,"k":5,"dataset":"grow","queries":{"kind":"filter","where":{"contains":[7]}}}`)
	for _, size := range []int{65_536, 1_048_576} {
		b.Run(strconv.Itoa(size), func(b *testing.B) {
			recs := make([][]int32, size)
			for i := range recs {
				recs[i] = []int32{int32(i % 97)}
			}
			db := dataset.New("grow", recs)
			s := mustServer(b, Config{TenantBudget: benchBudget, Seed: 1, Workers: 1})
			h := s.Handler()
			post := func(path string, body []byte) {
				req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
				w := httptest.NewRecorder()
				h.ServeHTTP(w, req)
				if w.Code != http.StatusOK {
					b.Fatalf("POST %s: status = %d, body = %s", path, w.Code, w.Body.String())
				}
			}
			var entry *store.Entry
			var scans uint64
			checkScans := func() {
				if got := entry.CountScans(); got != scans {
					b.Fatalf("CountScans = %d after appends, want %d (a warm filter query rescanned the dataset)", got, scans)
				}
			}
			register := func() {
				s.Datasets().Remove("grow")
				e, err := s.RegisterDataset("grow", "bench:filterappend", db)
				if err != nil {
					b.Fatal(err)
				}
				entry = e
				post("/v1/topk", queryBody) // warm-up: the one full filter scan
				scans = entry.CountScans()
			}
			register()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%4096 == 4095 {
					b.StopTimer()
					checkScans()
					register()
					b.StartTimer()
				}
				post("/v1/datasets/grow/append", appendBody)
				post("/v1/topk", queryBody)
			}
			b.StopTimer()
			checkScans()
		})
	}
}

// BenchmarkParallelAppendDistinctDatasets measures write-domain scaling:
// client goroutines append concurrently, each to its own catalogued dataset.
// Under the old global stream lock this was flat in GOMAXPROCS — every
// append serialized on one mutex regardless of target; with per-dataset
// write domains throughput must rise with cores. CI's -cpu=1,2,4 scaling
// matrix runs this row (deliberately named so the 15% single-setting guard
// on BenchmarkDatasetAppend does not also average these numbers in). The
// base datasets are kept small: BenchmarkDatasetAppend covers how an
// append's cost depends on the dataset size, and this row exists to watch
// the write-path coordination.
func BenchmarkParallelAppendDistinctDatasets(b *testing.B) {
	const numDatasets = 8
	recs := make([][]int32, 256)
	for i := range recs {
		recs[i] = []int32{int32(i % 97)}
	}
	s := mustServer(b, Config{TenantBudget: benchBudget, Seed: 1, Workers: 1})
	names := make([]string, numDatasets)
	for i := range names {
		names[i] = fmt.Sprintf("grow%d", i)
		if _, err := s.RegisterDataset(names[i], "bench:parappend", dataset.New(names[i], recs)); err != nil {
			b.Fatal(err)
		}
	}
	h := s.Handler()
	body := []byte(`{"fimi":"7 11\n13\n"}`)
	var next atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			// Round-robin the target per op (not per goroutine) so every
			// dataset grows at the same rate whatever the -cpu setting —
			// otherwise the single-goroutine run piles all growth onto one
			// dataset and its larger tail-block copies skew the comparison.
			name := names[int(next.Add(1)-1)%numDatasets]
			req := httptest.NewRequest(http.MethodPost, "/v1/datasets/"+name+"/append", bytes.NewReader(body))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				b.Fatalf("status = %d, body = %s", w.Code, w.Body.String())
			}
		}
	})
}
