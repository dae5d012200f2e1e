package server

// Tests for the observability layer: request-id propagation, inline ?trace=1
// stage breakdowns, the structured access log, the Prometheus scrape's
// well-formedness, and the pprof gating.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"log/slog"
	"math"
	"net/http"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/freegap/freegap/internal/dataset"
)

func TestRequestIDEchoedOnSuccessAndError(t *testing.T) {
	_, ts := newTestServer(t, Config{TenantBudget: 5})

	// A valid client-supplied id is echoed verbatim on the response header.
	body, _ := json.Marshal(TopKRequest{Common: Common{Tenant: "acme", Epsilon: 1.0, Answers: testAnswers, Monotonic: true}, K: 3})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/topk", bytes.NewReader(body))
	req.Header.Set("X-Request-ID", "client-chose-this.1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "client-chose-this.1" {
		t.Errorf("echoed id = %q, want the client-supplied one", got)
	}

	// Without a client id the server generates one and error bodies carry it.
	resp2, data := postJSON(t, ts.URL+"/v1/nope", map[string]any{"tenant": "acme"})
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, body = %s", resp2.StatusCode, data)
	}
	headerID := resp2.Header.Get("X-Request-ID")
	if len(headerID) != 16 {
		t.Errorf("generated id = %q, want 16 hex chars", headerID)
	}
	env := decodeInto[ErrorEnvelope](t, data)
	if env.Error.RequestID != headerID {
		t.Errorf("body request_id = %q, header = %q; want equal", env.Error.RequestID, headerID)
	}

	// A hostile id (header injection shape, overlong) is replaced, not echoed.
	req3, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/topk", bytes.NewReader(body))
	req3.Header.Set("X-Request-ID", strings.Repeat("x", 200))
	resp3, err := http.DefaultClient.Do(req3)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if got := resp3.Header.Get("X-Request-ID"); len(got) != 16 {
		t.Errorf("overlong client id echoed as %q, want a generated 16-char id", got)
	}
}

// traceResponse is the slice of a mechanism response the trace tests need.
type traceResponse struct {
	Trace *TraceJSON `json:"trace"`
}

// checkTrace asserts the structural invariants every ?trace=1 payload must
// hold: all stages present in pipeline order, contiguous monotone spans, and
// stage durations summing to the reported total within 5%.
func checkTrace(t *testing.T, tr *TraceJSON, wantID string) {
	t.Helper()
	if tr == nil {
		t.Fatal("response carries no trace")
	}
	if tr.RequestID != wantID {
		t.Errorf("trace request_id = %q, want %q", tr.RequestID, wantID)
	}
	if len(tr.Stages) != int(numStages) {
		t.Fatalf("trace has %d stages, want %d", len(tr.Stages), numStages)
	}
	var sum, cursor float64
	for i, st := range tr.Stages {
		if st.Name != stageNames[i] {
			t.Errorf("stages[%d] = %q, want %q", i, st.Name, stageNames[i])
		}
		if st.Micros < 0 {
			t.Errorf("stage %s duration %v < 0", st.Name, st.Micros)
		}
		if math.Abs(st.StartMicros-cursor) > 1e-6 {
			t.Errorf("stage %s starts at %v, want contiguous %v", st.Name, st.StartMicros, cursor)
		}
		cursor = st.StartMicros + st.Micros
		sum += st.Micros
	}
	if tr.TotalMicros <= 0 {
		t.Fatalf("total_us = %v, want > 0", tr.TotalMicros)
	}
	if diff := math.Abs(sum-tr.TotalMicros) / tr.TotalMicros; diff > 0.05 {
		t.Errorf("stage sum %vµs vs total %vµs: off by %.1f%%, want <= 5%%", sum, tr.TotalMicros, diff*100)
	}
}

func TestTraceInlineBreakdown(t *testing.T) {
	_, ts := newTestServer(t, Config{TenantBudget: 50})

	resp, data := postJSON(t, ts.URL+"/v1/topk?trace=1",
		TopKRequest{Common: Common{Tenant: "acme", Epsilon: 1.0, Answers: testAnswers, Monotonic: true}, K: 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body = %s", resp.StatusCode, data)
	}
	tr := decodeInto[traceResponse](t, data)
	checkTrace(t, tr.Trace, resp.Header.Get("X-Request-ID"))

	// The same request without ?trace=1 must not carry a trace.
	_, plain := postJSON(t, ts.URL+"/v1/topk",
		TopKRequest{Common: Common{Tenant: "acme", Epsilon: 1.0, Answers: testAnswers, Monotonic: true}, K: 3})
	if bytes.Contains(plain, []byte(`"trace"`)) {
		t.Errorf("untraced response carries a trace: %s", plain)
	}

	// Batch requests trace the same way, at the batch level.
	item, _ := json.Marshal(TopKRequest{Common: Common{Epsilon: 0.5, Answers: testAnswers, Monotonic: true}, K: 2})
	resp2, data2 := postJSON(t, ts.URL+"/v1/batch?trace=1", BatchRequest{
		Tenant:   "acme",
		Requests: []BatchItem{{Mechanism: "topk", Request: item}, {Mechanism: "topk", Request: item}},
	})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d, body = %s", resp2.StatusCode, data2)
	}
	batch := decodeInto[BatchResponse](t, data2)
	checkTrace(t, batch.Trace, resp2.Header.Get("X-Request-ID"))
}

// TestBatchTraceChargesItemStages traces a batch whose item resolves a cold
// filter over a multi-block dataset. The item's record scan belongs to the
// resolve stage, not validate, and the stages still partition the total.
func TestBatchTraceChargesItemStages(t *testing.T) {
	s, ts := newTestServer(t, Config{TenantBudget: 50})
	recs := make([][]int32, 16*dataset.BlockRecords)
	for i := range recs {
		recs[i] = []int32{0, int32(1 + i%15)}
	}
	if _, err := s.RegisterDataset("blocks", "test", dataset.New("blocks", recs)); err != nil {
		t.Fatal(err)
	}
	item := []byte(`{"epsilon":0.5,"k":2,"dataset":"blocks","queries":{"kind":"filter","where":{"contains":[0],"min_len":1}}}`)
	resp, data := postJSON(t, ts.URL+"/v1/batch?trace=1", BatchRequest{
		Tenant:   "acme",
		Requests: []BatchItem{{Mechanism: "topk", Request: item}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d, body = %s", resp.StatusCode, data)
	}
	batch := decodeInto[BatchResponse](t, data)
	checkTrace(t, batch.Trace, resp.Header.Get("X-Request-ID"))
	resolve, validate := batch.Trace.Stages[stageResolve].Micros, batch.Trace.Stages[stageValidate].Micros
	if resolve <= validate {
		t.Errorf("resolve stage %vµs <= validate stage %vµs: the item's filter scan was charged to the wrong stage", resolve, validate)
	}
}

func TestAccessLogRecords(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	_, ts := newTestServer(t, Config{TenantBudget: 5, AccessLog: logger})

	resp, data := postJSON(t, ts.URL+"/v1/topk",
		TopKRequest{Common: Common{Tenant: "acme", Epsilon: 1.0, Answers: testAnswers, Monotonic: true}, K: 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body = %s", resp.StatusCode, data)
	}

	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("access log is not one JSON record: %v\n%s", err, buf.String())
	}
	if rec["mechanism"] != "topk" || rec["tenant"] != "acme" {
		t.Errorf("record fields = %v, want mechanism topk / tenant acme", rec)
	}
	if rec["request_id"] != resp.Header.Get("X-Request-ID") {
		t.Errorf("logged request_id = %v, header = %q", rec["request_id"], resp.Header.Get("X-Request-ID"))
	}
	if st, _ := rec["status"].(float64); st != http.StatusOK {
		t.Errorf("logged status = %v, want 200", rec["status"])
	}
	if eps, _ := rec["epsilon"].(float64); eps != 1.0 {
		t.Errorf("logged epsilon = %v, want 1", rec["epsilon"])
	}
	if total, _ := rec["total_us"].(float64); total <= 0 {
		t.Errorf("logged total_us = %v, want > 0", rec["total_us"])
	}
	for _, stage := range []string{"decode_us", "execute_us", "encode_us"} {
		if _, ok := rec[stage].(float64); !ok {
			t.Errorf("record missing stage timing %s: %v", stage, rec)
		}
	}
}

func TestSlowRequestLogAlwaysFires(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	// Threshold of 1ns: every request is "slow", so the record must be
	// emitted at warn level even though this is the access logger.
	_, ts := newTestServer(t, Config{TenantBudget: 5, AccessLog: logger, SlowRequestThreshold: time.Nanosecond})

	postJSON(t, ts.URL+"/v1/topk",
		TopKRequest{Common: Common{Tenant: "acme", Epsilon: 1.0, Answers: testAnswers, Monotonic: true}, K: 3})
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("slow log is not one JSON record: %v\n%s", err, buf.String())
	}
	if rec["level"] != "WARN" || rec["msg"] != "slow request" {
		t.Errorf("record = %v, want level WARN msg \"slow request\"", rec)
	}

	// A negative threshold disables slow logging; with no access logger
	// either, nothing should be emitted anywhere user-visible — exercised
	// here just to cover the config path.
	_, ts2 := newTestServer(t, Config{TenantBudget: 5, SlowRequestThreshold: -1})
	resp, data := postJSON(t, ts2.URL+"/v1/topk",
		TopKRequest{Common: Common{Tenant: "acme", Epsilon: 1.0, Answers: testAnswers, Monotonic: true}, K: 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body = %s", resp.StatusCode, data)
	}
}

// metricLine matches one Prometheus text exposition sample line.
var metricLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9.eE+-]+|NaN|[+-]Inf)$`)

// TestMetricsScrapeWellFormed drives traffic over several endpoints and then
// validates the whole /metrics exposition line by line: every sample parses,
// every metric name carries exactly one TYPE header, histogram buckets are
// cumulative with +Inf == _count, and the new observability series exist.
func TestMetricsScrapeWellFormed(t *testing.T) {
	_, ts := newTestServer(t, Config{TenantBudget: 5})

	postJSON(t, ts.URL+"/v1/topk", TopKRequest{Common: Common{Tenant: "acme", Epsilon: 1.0, Answers: testAnswers, Monotonic: true}, K: 3})
	postJSON(t, ts.URL+"/v1/nope", map[string]any{"tenant": "acme"})
	getJSON(t, ts.URL+"/v1/tenants/acme/budget")

	resp, data := getJSON(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("scrape content type = %q", ct)
	}

	typed := make(map[string]string)
	lastBucket := make(map[string]uint64) // series prefix → last cumulative count
	values := make(map[string]string)
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			if prev, dup := typed[fields[2]]; dup {
				t.Errorf("metric %s declared TYPE twice (%s, %s)", fields[2], prev, fields[3])
			}
			typed[fields[2]] = fields[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		m := metricLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("unparsable sample line %q", line)
		}
		if _, err := strconv.ParseFloat(m[3], 64); err != nil {
			t.Fatalf("unparsable value in %q: %v", line, err)
		}
		values[m[1]+m[2]] = m[3]
		if strings.HasSuffix(m[1], "_bucket") {
			// Cumulative within one series: strip the le label to key the
			// series, then require non-decreasing counts in file order.
			key := m[1] + stripLe(m[2])
			n, err := strconv.ParseUint(m[3], 10, 64)
			if err != nil {
				t.Fatalf("bucket count in %q: %v", line, err)
			}
			if n < lastBucket[key] {
				t.Errorf("bucket counts regress at %q", line)
			}
			lastBucket[key] = n
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	for _, want := range []string{
		"freegap_requests_total", "freegap_request_seconds", "freegap_stage_seconds",
		"freegap_build_info", "freegap_uptime_seconds", "freegap_tenant_remaining_epsilon",
	} {
		if _, ok := typed[want]; !ok {
			t.Errorf("scrape missing metric %s", want)
		}
	}
	if typed["freegap_request_seconds"] != "histogram" || typed["freegap_stage_seconds"] != "histogram" {
		t.Errorf("latency metrics not typed histogram: %v %v",
			typed["freegap_request_seconds"], typed["freegap_stage_seconds"])
	}
	// One topk request was served: its latency series counts exactly one
	// observation and +Inf agrees with _count.
	inf := values[`freegap_request_seconds_bucket{mechanism="topk",le="+Inf"}`]
	count := values[`freegap_request_seconds_count{mechanism="topk"}`]
	if inf != "1" || count != "1" {
		t.Errorf("topk latency +Inf = %q, _count = %q, want both 1", inf, count)
	}
	// The tenant gauge reflects the ε spent: budget 5 − 1 charged = 4.
	if got := values[`freegap_tenant_remaining_epsilon{tenant="acme"}`]; got != "4" {
		t.Errorf("tenant remaining gauge = %q, want 4", got)
	}
	if v := values[`freegap_build_info{go_version="`+runtime.Version()+`",version="`+Version+`"}`]; v != "1" {
		t.Errorf("build info sample = %q, want 1 (typed %v)", v, typed["freegap_build_info"])
	}
}

// stripLe removes the le pair from a rendered label block so bucket lines of
// one series share a key.
var leLabel = regexp.MustCompile(`,?le="[^"]*"`)

func stripLe(labels string) string { return leLabel.ReplaceAllString(labels, "") }

func TestDebugPprofGated(t *testing.T) {
	_, ts := newTestServer(t, Config{TenantBudget: 5})
	resp, _ := getJSON(t, ts.URL+"/debug/pprof/")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof without Debug: status = %d, want 404", resp.StatusCode)
	}

	_, tsDebug := newTestServer(t, Config{TenantBudget: 5, Debug: true})
	resp2, _ := getJSON(t, tsDebug.URL+"/debug/pprof/")
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("pprof with Debug: status = %d, want 200", resp2.StatusCode)
	}
	// Debug also turns on runtime gauges in the scrape.
	_, data := getJSON(t, tsDebug.URL+"/metrics")
	if !bytes.Contains(data, []byte("freegap_goroutines")) {
		t.Errorf("debug scrape missing runtime gauges")
	}
}

func TestHealthzReportsWALGeneration(t *testing.T) {
	dir := t.TempDir()
	_, ts := newPersistentServer(t, dir, 10)
	_, data := getJSON(t, ts.URL+"/healthz")
	health := decodeInto[HealthResponse](t, data)
	if health.WALGeneration < 1 {
		t.Errorf("wal_generation = %d, want >= 1 on a persistent server", health.WALGeneration)
	}
	if health.UptimeSeconds < 0 {
		t.Errorf("uptime = %v, want >= 0", health.UptimeSeconds)
	}
}
