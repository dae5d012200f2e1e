package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/freegap/freegap/internal/rng"
)

// newTestServer starts an httptest server over a freshly configured Server
// and registers cleanup for both.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal request: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	return resp, data
}

func getJSON(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	return resp, data
}

func decodeInto[T any](t *testing.T, data []byte) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("unmarshal %T from %s: %v", v, data, err)
	}
	return v
}

var testAnswers = []float64{812, 641, 633, 601, 425, 124, 77, 8}

func TestTopKHappyPathTracksBudget(t *testing.T) {
	_, ts := newTestServer(t, Config{TenantBudget: 5})

	resp, data := postJSON(t, ts.URL+"/v1/topk", TopKRequest{Common: Common{Tenant: "acme", Epsilon: 1.0, Answers: testAnswers, Monotonic: true}, K: 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body = %s", resp.StatusCode, data)
	}
	out := decodeInto[TopKResponse](t, data)
	if len(out.Selections) != 3 {
		t.Fatalf("got %d selections, want 3", len(out.Selections))
	}
	seen := map[int]bool{}
	for _, sel := range out.Selections {
		if sel.Index < 0 || sel.Index >= len(testAnswers) {
			t.Errorf("selection index %d out of range", sel.Index)
		}
		if seen[sel.Index] {
			t.Errorf("index %d selected twice", sel.Index)
		}
		seen[sel.Index] = true
		if !(sel.Gap > 0) {
			t.Errorf("gap %v for index %d is not strictly positive", sel.Gap, sel.Index)
		}
	}
	if got, want := out.BudgetRemaining, 4.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("remaining after first request = %v, want %v", got, want)
	}

	// A second request draws from the same tenant budget.
	_, data = postJSON(t, ts.URL+"/v1/topk", TopKRequest{Common: Common{Tenant: "acme", Epsilon: 1.5, Answers: testAnswers, Monotonic: true}, K: 2})
	out = decodeInto[TopKResponse](t, data)
	if got, want := out.BudgetRemaining, 2.5; math.Abs(got-want) > 1e-9 {
		t.Errorf("remaining after second request = %v, want %v", got, want)
	}

	// The budget endpoint agrees with the response bookkeeping.
	resp, data = getJSON(t, ts.URL+"/v1/tenants/acme/budget")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("budget status = %d, body = %s", resp.StatusCode, data)
	}
	budget := decodeInto[BudgetResponse](t, data)
	if budget.Tenant != "acme" || budget.Charges != 2 {
		t.Errorf("budget = %+v, want tenant acme with 2 charges", budget)
	}
	if math.Abs(budget.Spent-2.5) > 1e-9 || math.Abs(budget.Remaining-2.5) > 1e-9 {
		t.Errorf("budget spent/remaining = %v/%v, want 2.5/2.5", budget.Spent, budget.Remaining)
	}
}

func TestTenantsAreIsolated(t *testing.T) {
	_, ts := newTestServer(t, Config{TenantBudget: 2})
	_, _ = postJSON(t, ts.URL+"/v1/max", MaxRequest{Common: Common{Tenant: "a", Epsilon: 1.5, Answers: testAnswers}})

	// Tenant b still has a full budget.
	resp, data := postJSON(t, ts.URL+"/v1/max", MaxRequest{Common: Common{Tenant: "b", Epsilon: 1.5, Answers: testAnswers}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tenant b status = %d, body = %s", resp.StatusCode, data)
	}
	out := decodeInto[MaxResponse](t, data)
	if math.Abs(out.BudgetRemaining-0.5) > 1e-9 {
		t.Errorf("tenant b remaining = %v, want 0.5", out.BudgetRemaining)
	}
}

func TestMalformedAndInvalidRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	cases := []struct {
		name       string
		body       string
		wantStatus int
		wantCode   string
	}{
		{"not json", `{"tenant": `, http.StatusBadRequest, CodeInvalidRequest},
		{"unknown field", `{"tenant":"t","k":1,"epsilon":1,"answers":[1,2,3],"bogus":true}`, http.StatusBadRequest, CodeInvalidRequest},
		{"missing tenant", `{"k":1,"epsilon":1,"answers":[1,2,3]}`, http.StatusBadRequest, CodeInvalidRequest},
		{"zero epsilon", `{"tenant":"t","k":1,"epsilon":0,"answers":[1,2,3]}`, http.StatusBadRequest, CodeInvalidRequest},
		{"negative epsilon", `{"tenant":"t","k":1,"epsilon":-1,"answers":[1,2,3]}`, http.StatusBadRequest, CodeInvalidRequest},
		{"empty answers", `{"tenant":"t","k":1,"epsilon":1,"answers":[]}`, http.StatusBadRequest, CodeInvalidRequest},
		{"k too large", `{"tenant":"t","k":3,"epsilon":1,"answers":[1,2,3]}`, http.StatusBadRequest, CodeInvalidRequest},
		{"k zero", `{"tenant":"t","k":0,"epsilon":1,"answers":[1,2,3]}`, http.StatusBadRequest, CodeInvalidRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/topk", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatalf("POST: %v", err)
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d (body %s)", resp.StatusCode, tc.wantStatus, data)
			}
			env := decodeInto[ErrorEnvelope](t, data)
			if env.Error.Code != tc.wantCode {
				t.Errorf("code = %q, want %q", env.Error.Code, tc.wantCode)
			}
			if env.Error.Message == "" {
				t.Errorf("error message is empty")
			}
		})
	}

	// Validation failures must not charge the budget (the tenant never even
	// gets an accountant for a pure validation error after tenant parsing).
	resp, data := getJSON(t, ts.URL+"/v1/tenants/t/budget")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("budget after failed requests: status = %d, body = %s", resp.StatusCode, data)
	}
}

func TestUnknownMechanismAndTenant(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, data := postJSON(t, ts.URL+"/v1/medians", TopKRequest{Common: Common{Tenant: "t", Epsilon: 1, Answers: testAnswers}, K: 1})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown mechanism status = %d, body = %s", resp.StatusCode, data)
	}
	env := decodeInto[ErrorEnvelope](t, data)
	if env.Error.Code != CodeUnknownMechanism {
		t.Errorf("code = %q, want %q", env.Error.Code, CodeUnknownMechanism)
	}

	resp, data = getJSON(t, ts.URL+"/v1/tenants/nobody/budget")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown tenant status = %d, body = %s", resp.StatusCode, data)
	}
	env = decodeInto[ErrorEnvelope](t, data)
	if env.Error.Code != CodeUnknownTenant {
		t.Errorf("code = %q, want %q", env.Error.Code, CodeUnknownTenant)
	}
}

func TestSVTVariants(t *testing.T) {
	_, ts := newTestServer(t, Config{TenantBudget: 100})
	for _, adaptive := range []bool{false, true} {
		name := "plain"
		if adaptive {
			name = "adaptive"
		}
		t.Run(name, func(t *testing.T) {
			resp, data := postJSON(t, ts.URL+"/v1/svt", SVTRequest{Common: Common{Tenant: "svt-" + name, Epsilon: 2.0, Answers: testAnswers, Monotonic: true}, K: 2, Threshold: 500, Adaptive: adaptive})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status = %d, body = %s", resp.StatusCode, data)
			}
			out := decodeInto[SVTResponse](t, data)
			if out.AboveCount != len(out.Above) {
				t.Errorf("above_count %d != len(above) %d", out.AboveCount, len(out.Above))
			}
			if out.QueriesProcessed == 0 || out.QueriesProcessed > len(testAnswers) {
				t.Errorf("queries_processed = %d out of range", out.QueriesProcessed)
			}
			if out.MechanismSpent <= 0 || out.MechanismSpent > 2.0+1e-9 {
				t.Errorf("mechanism_spent = %v out of (0, 2]", out.MechanismSpent)
			}
			for _, a := range out.Above {
				if math.Abs(a.Estimate-(a.Gap+500)) > 1e-9 {
					t.Errorf("estimate %v != gap %v + threshold", a.Estimate, a.Gap)
				}
				if adaptive && a.Branch != "top" && a.Branch != "middle" {
					t.Errorf("adaptive branch %q not top/middle", a.Branch)
				}
			}
			if math.Abs(out.BudgetRemaining-98) > 1e-9 {
				t.Errorf("remaining = %v, want 98 (full reservation charged)", out.BudgetRemaining)
			}
		})
	}
}

// TestBudgetExhaustionUnderConcurrency is the acceptance-criteria test: many
// concurrent requests race for one tenant's budget and exactly
// budget/epsilon of them may win; once spent, requests fail with a
// structured 402 and the accountant never overdrafts.
func TestBudgetExhaustionUnderConcurrency(t *testing.T) {
	s, ts := newTestServer(t, Config{TenantBudget: 1.0, Workers: 4})

	const (
		clients = 24
		reqEps  = 0.3 // 3 requests of 0.3 fit in a budget of 1.0
	)
	var ok, exhausted atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			raw, _ := json.Marshal(TopKRequest{Common: Common{Tenant: "shared", Epsilon: reqEps, Answers: testAnswers, Monotonic: true}, K: 2})
			resp, err := http.Post(ts.URL+"/v1/topk", "application/json", bytes.NewReader(raw))
			if err != nil {
				t.Errorf("POST: %v", err)
				return
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
				ok.Add(1)
			case http.StatusPaymentRequired:
				var env ErrorEnvelope
				if err := json.Unmarshal(data, &env); err != nil {
					t.Errorf("402 body not an error envelope: %s", data)
					return
				}
				if env.Error.Code != CodeBudgetExhausted {
					t.Errorf("402 code = %q, want %q", env.Error.Code, CodeBudgetExhausted)
				}
				if env.Error.Remaining == nil {
					t.Errorf("402 envelope missing remaining budget")
				}
				exhausted.Add(1)
			default:
				t.Errorf("unexpected status %d: %s", resp.StatusCode, data)
			}
		}()
	}
	wg.Wait()

	if got := ok.Load(); got != 3 {
		t.Errorf("%d requests admitted, want exactly 3", got)
	}
	if got := exhausted.Load(); got != clients-3 {
		t.Errorf("%d requests rejected, want %d", got, clients-3)
	}
	acct, okT := s.Registry().Lookup("shared")
	if !okT {
		t.Fatal("tenant not registered")
	}
	if spent := acct.Spent(); spent > 1.0+1e-9 {
		t.Errorf("accountant overdrafted: spent %v > budget 1.0", spent)
	}

	// A fresh request with a small epsilon that still fits must succeed.
	resp, data := postJSON(t, ts.URL+"/v1/max", MaxRequest{Common: Common{Tenant: "shared", Epsilon: 0.05, Answers: testAnswers}})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("residual-budget request: status = %d, body = %s", resp.StatusCode, data)
	}
}

func TestDeterministicWithFixedSeedAndOneWorker(t *testing.T) {
	run := func() TopKResponse {
		_, ts := newTestServer(t, Config{Seed: 7, Workers: 1})
		_, data := postJSON(t, ts.URL+"/v1/topk", TopKRequest{Common: Common{Tenant: "det", Epsilon: 1.0, Answers: testAnswers, Monotonic: true}, K: 3})
		return decodeInto[TopKResponse](t, data)
	}
	a, b := run(), run()
	if fmt.Sprintf("%v", a) != fmt.Sprintf("%v", b) {
		t.Errorf("same seed produced different outputs:\n%v\n%v", a, b)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 3})

	resp, data := getJSON(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
	health := decodeInto[HealthResponse](t, data)
	if health.Status != "ok" || health.Workers != 3 {
		t.Errorf("health = %+v, want status ok with 3 workers", health)
	}

	// Generate one success and one budget rejection, then check the counters.
	_, _ = postJSON(t, ts.URL+"/v1/topk", TopKRequest{Common: Common{Tenant: "m", Epsilon: 1, Answers: testAnswers}, K: 1})
	_, _ = postJSON(t, ts.URL+"/v1/topk", TopKRequest{Common: Common{Tenant: "m", Epsilon: 1e6, Answers: testAnswers}, K: 1})

	resp, data = getJSON(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	text := string(data)
	for _, want := range []string{
		"# TYPE freegap_requests_total counter",
		`freegap_requests_total{code="ok",mechanism="topk"} 1`,
		`freegap_budget_exhausted_total{mechanism="topk"} 1`,
		"freegap_in_flight_requests 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q:\n%s", want, text)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	for _, cfg := range []Config{
		{TenantBudget: -1},
		{TenantBudget: math.Inf(1)},
		{Workers: -2},
		{MaxAnswers: -1},
		{MaxBodyBytes: -1},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v) succeeded, want error", cfg)
		}
	}

	s, err := New(Config{})
	if err != nil {
		t.Fatalf("New with defaults: %v", err)
	}
	defer s.Close()
	cfg := s.Config()
	if cfg.TenantBudget != DefaultTenantBudget || cfg.Workers <= 0 || cfg.Seed == 0 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
}

func TestRegistry(t *testing.T) {
	reg, err := NewRegistry(3, 0)
	if err != nil {
		t.Fatalf("NewRegistry: %v", err)
	}
	if _, err := NewRegistry(0, 0); err == nil {
		t.Error("NewRegistry(0, 0) succeeded, want error")
	}
	if _, err := NewRegistry(math.Inf(1), 0); err == nil {
		t.Error("NewRegistry(+Inf, 0) succeeded, want error")
	}
	if _, err := NewRegistry(1, -1); err == nil {
		t.Error("NewRegistry(1, -1) succeeded, want error")
	}
	if _, err := reg.Get(""); err == nil {
		t.Error("Get(\"\") succeeded, want error")
	}
	if _, err := reg.Get(strings.Repeat("x", maxTenantNameLen+1)); err == nil {
		t.Error("oversized tenant id accepted, want error")
	}

	a1, err := reg.Get("t1")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	a2, _ := reg.Get("t1")
	if a1 != a2 {
		t.Error("Get returned a different accountant for the same tenant")
	}
	if _, ok := reg.Lookup("t2"); ok {
		t.Error("Lookup invented a tenant")
	}
	if rem, err := reg.Charge("t1", "test", 1); err != nil || math.Abs(rem-2) > 1e-9 {
		t.Errorf("Charge = (%v, %v), want (2, nil)", rem, err)
	}
	reg.Get("t2")
	if got := reg.Tenants(); len(got) != 2 || got[0] != "t1" || got[1] != "t2" {
		t.Errorf("Tenants() = %v, want [t1 t2]", got)
	}
	if reg.Len() != 2 {
		t.Errorf("Len() = %d, want 2", reg.Len())
	}
}

func TestTenantLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxTenants: 2})
	for _, tenant := range []string{"a", "b"} {
		resp, data := postJSON(t, ts.URL+"/v1/max", MaxRequest{Common: Common{Tenant: tenant, Epsilon: 0.1, Answers: testAnswers}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("tenant %s: status = %d, body = %s", tenant, resp.StatusCode, data)
		}
	}
	resp, data := postJSON(t, ts.URL+"/v1/max", MaxRequest{Common: Common{Tenant: "c", Epsilon: 0.1, Answers: testAnswers}})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third tenant: status = %d, want 429 (body %s)", resp.StatusCode, data)
	}
	env := decodeInto[ErrorEnvelope](t, data)
	if env.Error.Code != CodeTenantLimit {
		t.Errorf("code = %q, want %q", env.Error.Code, CodeTenantLimit)
	}
	// Existing tenants keep working at the cap.
	resp, _ = postJSON(t, ts.URL+"/v1/max", MaxRequest{Common: Common{Tenant: "a", Epsilon: 0.1, Answers: testAnswers}})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("existing tenant rejected at the cap: status = %d", resp.StatusCode)
	}
}

func TestEpsilonBelowMinimumRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := postJSON(t, ts.URL+"/v1/max", MaxRequest{Common: Common{Tenant: "tiny", Epsilon: 1e-12, Answers: testAnswers}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400 (body %s)", resp.StatusCode, data)
	}
	env := decodeInto[ErrorEnvelope](t, data)
	if env.Error.Code != CodeInvalidRequest {
		t.Errorf("code = %q, want %q", env.Error.Code, CodeInvalidRequest)
	}
}

// TestShutdownBeforeServe covers the dpserver signal race: a SIGTERM landing
// before Serve starts must not hang — Serve must return ErrServerClosed.
func TestShutdownBeforeServe(t *testing.T) {
	s, err := New(Config{Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown before Serve: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if err := s.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("Serve after Shutdown returned %v, want http.ErrServerClosed", err)
	}
}

func TestOversizedBodyGets413(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 256})
	big := TopKRequest{Common: Common{Tenant: "t", Epsilon: 1, Answers: make([]float64, 1000)}, K: 1}
	raw, _ := json.Marshal(big)
	resp, err := http.Post(ts.URL+"/v1/topk", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413 (body %s)", resp.StatusCode, data)
	}
	env := decodeInto[ErrorEnvelope](t, data)
	if env.Error.Code != CodeRequestTooLarge {
		t.Errorf("code = %q, want %q", env.Error.Code, CodeRequestTooLarge)
	}
}

// TestPoolCloseWithBlockedSender pins the shutdown contract: a sender queued
// behind a busy pool must get errPoolClosed when the pool closes, never a
// send-on-closed-channel panic.
func TestPoolCloseWithBlockedSender(t *testing.T) {
	p := newWorkerPool(1, 1)
	block := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = p.do(context.Background(), func(rng.Source) {
			close(started)
			<-block
		})
	}()
	<-started // worker is now busy

	queued := make(chan error, 1)
	go func() {
		queued <- p.do(context.Background(), func(rng.Source) {})
	}()

	// Let the pool close while the second job is still waiting for a worker,
	// then release the busy one.
	done := make(chan struct{})
	go func() { p.close(); close(done) }()
	close(block)
	wg.Wait()
	<-done

	if err := <-queued; err != nil && !errors.Is(err, errPoolClosed) {
		t.Fatalf("queued do returned %v, want nil or errPoolClosed", err)
	}

	// do after close must fail cleanly too.
	if err := p.do(context.Background(), func(rng.Source) {}); !errors.Is(err, errPoolClosed) {
		t.Fatalf("do after close returned %v, want errPoolClosed", err)
	}
}

func TestPipelineEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{TenantBudget: 10})

	resp, data := postJSON(t, ts.URL+"/v1/pipeline/topk", PipelineTopKRequest{
		Common: Common{Tenant: "p", Epsilon: 2.0, Answers: testAnswers, Monotonic: true}, K: 3,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pipeline/topk status = %d, body = %s", resp.StatusCode, data)
	}
	topk := decodeInto[PipelineTopKResponse](t, data)
	if len(topk.Estimates) != 3 {
		t.Fatalf("got %d estimates, want 3", len(topk.Estimates))
	}
	for _, est := range topk.Estimates {
		if est.Index < 0 || est.Index >= len(testAnswers) {
			t.Errorf("estimate index %d out of range", est.Index)
		}
	}
	if !(topk.TheoreticalErrorRatio > 0 && topk.TheoreticalErrorRatio < 1) {
		t.Errorf("error ratio %v not in (0, 1)", topk.TheoreticalErrorRatio)
	}
	// The pipeline reserves its full ε, exactly like a serial select+measure.
	if math.Abs(topk.EpsilonSpent-2.0) > 1e-9 || math.Abs(topk.BudgetRemaining-8.0) > 1e-9 {
		t.Errorf("billing = spent %v remaining %v, want 2 and 8", topk.EpsilonSpent, topk.BudgetRemaining)
	}

	resp, data = postJSON(t, ts.URL+"/v1/pipeline/svt", PipelineSVTRequest{
		Common: Common{Tenant: "p", Epsilon: 3.0, Answers: testAnswers, Monotonic: true},
		K:      2, Threshold: 500, Adaptive: true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pipeline/svt status = %d, body = %s", resp.StatusCode, data)
	}
	svt := decodeInto[PipelineSVTResponse](t, data)
	if svt.AboveCount != len(svt.Estimates) {
		t.Errorf("above_count %d != %d estimates", svt.AboveCount, len(svt.Estimates))
	}
	for _, est := range svt.Estimates {
		if est.LowerBound >= est.GapEstimate {
			t.Errorf("lower bound %v not below gap estimate %v", est.LowerBound, est.GapEstimate)
		}
	}
	if math.Abs(svt.BudgetRemaining-5.0) > 1e-9 {
		t.Errorf("remaining = %v, want 5 (full reservation charged)", svt.BudgetRemaining)
	}

	// The ledger breaks the spend down by mechanism.
	_, data = getJSON(t, ts.URL+"/v1/tenants/p/budget")
	budget := decodeInto[BudgetResponse](t, data)
	if math.Abs(budget.SpentByMechanism["pipeline/topk"]-2.0) > 1e-9 ||
		math.Abs(budget.SpentByMechanism["pipeline/svt"]-3.0) > 1e-9 {
		t.Errorf("spent_by_mechanism = %v, want pipeline/topk:2 pipeline/svt:3", budget.SpentByMechanism)
	}

	// Unknown pipeline mechanisms get the structured 404 naming the full
	// registry-style name the client must fix.
	resp, data = postJSON(t, ts.URL+"/v1/pipeline/median", PipelineTopKRequest{
		Common: Common{Tenant: "p", Epsilon: 1, Answers: testAnswers}, K: 1,
	})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown pipeline mechanism status = %d, body = %s", resp.StatusCode, data)
	}
	env := decodeInto[ErrorEnvelope](t, data)
	if env.Error.Code != CodeUnknownMechanism {
		t.Errorf("code = %q, want %q", env.Error.Code, CodeUnknownMechanism)
	}
	if !strings.Contains(env.Error.Message, `"pipeline/median"`) {
		t.Errorf("404 message %q does not name the full mechanism path", env.Error.Message)
	}
}

// TestUnknownNamespacedMechanismGets404 pins the structured 404 for
// multi-segment names outside the built-in pipeline/ namespace: custom
// registries may mount namespaced mechanisms, so typos there must get the
// same error envelope as everywhere else.
func TestUnknownNamespacedMechanismGets404(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := postJSON(t, ts.URL+"/v1/my-org.v2/topk", MaxRequest{
		Common: Common{Tenant: "t", Epsilon: 1, Answers: testAnswers},
	})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, body = %s", resp.StatusCode, data)
	}
	env := decodeInto[ErrorEnvelope](t, data)
	if env.Error.Code != CodeUnknownMechanism {
		t.Errorf("code = %q, want %q", env.Error.Code, CodeUnknownMechanism)
	}
	if !strings.Contains(env.Error.Message, `"my-org.v2/topk"`) {
		t.Errorf("404 message %q does not name the full mechanism path", env.Error.Message)
	}
}

// batchBody builds a /v1/batch body from (mechanism, request) pairs.
func batchBody(t *testing.T, tenant string, items ...any) BatchRequest {
	t.Helper()
	if len(items)%2 != 0 {
		t.Fatal("batchBody needs (mechanism, request) pairs")
	}
	req := BatchRequest{Tenant: tenant}
	for i := 0; i < len(items); i += 2 {
		raw, err := json.Marshal(items[i+1])
		if err != nil {
			t.Fatal(err)
		}
		req.Requests = append(req.Requests, BatchItem{Mechanism: items[i].(string), Request: raw})
	}
	return req
}

func TestBatchHappyPath(t *testing.T) {
	_, ts := newTestServer(t, Config{TenantBudget: 10})

	resp, data := postJSON(t, ts.URL+"/v1/batch", batchBody(t, "acme",
		"max", MaxRequest{Common: Common{Epsilon: 0.5, Answers: testAnswers, Monotonic: true}},
		"topk", TopKRequest{Common: Common{Epsilon: 1.0, Answers: testAnswers, Monotonic: true}, K: 3},
		"svt", SVTRequest{Common: Common{Epsilon: 1.5, Answers: testAnswers, Monotonic: true}, K: 2, Threshold: 500, Adaptive: true},
		"pipeline/topk", PipelineTopKRequest{Common: Common{Epsilon: 2.0, Answers: testAnswers, Monotonic: true}, K: 2},
	))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d, body = %s", resp.StatusCode, data)
	}
	out := decodeInto[BatchResponse](t, data)
	if len(out.Results) != 4 {
		t.Fatalf("got %d results, want 4", len(out.Results))
	}
	wantMechs := []string{"max", "topk", "svt", "pipeline/topk"}
	for i, res := range out.Results {
		if res.Mechanism != wantMechs[i] {
			t.Errorf("results[%d].mechanism = %q, want %q (request order must be preserved)", i, res.Mechanism, wantMechs[i])
		}
		if res.Error != nil {
			t.Errorf("results[%d] failed: %+v", i, res.Error)
		}
		if res.Response == nil {
			t.Errorf("results[%d] has no response", i)
		}
	}
	if math.Abs(out.EpsilonSpent-5.0) > 1e-9 || math.Abs(out.BudgetRemaining-5.0) > 1e-9 {
		t.Errorf("batch billing = spent %v remaining %v, want 5 and 5", out.EpsilonSpent, out.BudgetRemaining)
	}

	// One round trip, but the ledger records one charge per item under the
	// item's own mechanism.
	_, data = getJSON(t, ts.URL+"/v1/tenants/acme/budget")
	budget := decodeInto[BudgetResponse](t, data)
	if budget.Charges != 4 {
		t.Errorf("charges = %d, want 4", budget.Charges)
	}
	if math.Abs(budget.SpentByMechanism["svt"]-1.5) > 1e-9 {
		t.Errorf("spent_by_mechanism = %v, want svt:1.5", budget.SpentByMechanism)
	}
}

func TestBatchValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{TenantBudget: 10, MaxBatch: 2})

	okItem := MaxRequest{Common: Common{Epsilon: 0.5, Answers: testAnswers}}
	cases := []struct {
		name string
		body BatchRequest
	}{
		{"no requests", batchBody(t, "t")},
		{"unknown mechanism", batchBody(t, "t", "median", okItem)},
		{"invalid item", batchBody(t, "t", "max", MaxRequest{Common: Common{Epsilon: -1, Answers: testAnswers}})},
		{"tenant mismatch", batchBody(t, "t", "max", MaxRequest{Common: Common{Tenant: "other", Epsilon: 0.5, Answers: testAnswers}})},
		{"over max batch", batchBody(t, "t", "max", okItem, "max", okItem, "max", okItem)},
		{"empty tenant", batchBody(t, "", "max", okItem)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := postJSON(t, ts.URL+"/v1/batch", tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (body %s)", resp.StatusCode, data)
			}
			if env := decodeInto[ErrorEnvelope](t, data); env.Error.Code != CodeInvalidRequest {
				t.Errorf("code = %q, want %q", env.Error.Code, CodeInvalidRequest)
			}
		})
	}

	// A batch with one bad item charges nothing, even for its valid items.
	resp, data := postJSON(t, ts.URL+"/v1/batch", batchBody(t, "t",
		"max", okItem,
		"topk", TopKRequest{Common: Common{Epsilon: 1, Answers: testAnswers}, K: 99},
	))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mixed batch status = %d, body = %s", resp.StatusCode, data)
	}
	if resp, _ := getJSON(t, ts.URL+"/v1/tenants/t/budget"); resp.StatusCode != http.StatusNotFound {
		t.Error("a fully rejected batch provisioned (or charged) the tenant")
	}
}

// TestBatchAtomicityUnderConcurrency is the acceptance-criteria storm: many
// concurrent batches race one tenant's nearly-empty budget. The multi-charge
// is all-or-nothing, so the admitted spend must be a whole number of batch
// totals and can never exceed what the same requests issued serially could.
func TestBatchAtomicityUnderConcurrency(t *testing.T) {
	s, ts := newTestServer(t, Config{TenantBudget: 1.0, Workers: 4})

	const (
		clients   = 20
		itemEps   = 0.2
		batchSize = 3 // 0.6 per batch: exactly one batch fits in ε = 1.0
	)
	var ok, exhausted atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body := BatchRequest{Tenant: "shared"}
			for j := 0; j < batchSize; j++ {
				raw, _ := json.Marshal(MaxRequest{Common: Common{Epsilon: itemEps, Answers: testAnswers}})
				body.Requests = append(body.Requests, BatchItem{Mechanism: "max", Request: raw})
			}
			raw, _ := json.Marshal(body)
			resp, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(raw))
			if err != nil {
				t.Errorf("POST: %v", err)
				return
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
				out := decodeInto[BatchResponse](t, data)
				for i, res := range out.Results {
					if res.Error != nil || res.Response == nil {
						t.Errorf("admitted batch item %d failed: %+v", i, res.Error)
					}
				}
				ok.Add(1)
			case http.StatusPaymentRequired:
				var env ErrorEnvelope
				if err := json.Unmarshal(data, &env); err != nil || env.Error.Code != CodeBudgetExhausted {
					t.Errorf("402 body not a budget_exhausted envelope: %s", data)
				}
				exhausted.Add(1)
			default:
				t.Errorf("unexpected status %d: %s", resp.StatusCode, data)
			}
		}()
	}
	wg.Wait()

	if got := ok.Load(); got != 1 {
		t.Errorf("%d batches admitted, want exactly 1 (ε = 1.0 fits one 0.6 batch)", got)
	}
	if got := exhausted.Load(); got != clients-1 {
		t.Errorf("%d batches rejected, want %d", got, clients-1)
	}
	acct, okT := s.Registry().Lookup("shared")
	if !okT {
		t.Fatal("tenant not registered")
	}
	spent := acct.Spent()
	if spent > 1.0+1e-9 {
		t.Errorf("accountant overdrafted: spent %v > budget 1.0", spent)
	}
	// Zero partial batches: total spend is a whole number of 0.6 batches and
	// the charge log holds whole batches only.
	if math.Abs(spent-0.6) > 1e-9 {
		t.Errorf("spent %v, want exactly one whole batch (0.6)", spent)
	}
	if n := acct.ChargeCount(); n%batchSize != 0 {
		t.Errorf("charge log holds a partial batch: %d entries", n)
	}

	// 0.4 remains: a 2-item batch of 0.6 must still be refused whole, while
	// a 2-item batch of 0.4 fits.
	tooBig := batchBody(t, "shared",
		"max", MaxRequest{Common: Common{Epsilon: 0.3, Answers: testAnswers}},
		"max", MaxRequest{Common: Common{Epsilon: 0.3, Answers: testAnswers}},
	)
	if resp, data := postJSON(t, ts.URL+"/v1/batch", tooBig); resp.StatusCode != http.StatusPaymentRequired {
		t.Errorf("overcommitted batch status = %d, body = %s", resp.StatusCode, data)
	}
	fits := batchBody(t, "shared",
		"max", MaxRequest{Common: Common{Epsilon: 0.2, Answers: testAnswers}},
		"max", MaxRequest{Common: Common{Epsilon: 0.2, Answers: testAnswers}},
	)
	if resp, data := postJSON(t, ts.URL+"/v1/batch", fits); resp.StatusCode != http.StatusOK {
		t.Errorf("residual-budget batch status = %d, body = %s", resp.StatusCode, data)
	}
}

// TestBatchMatchesSerialSpend pins the overspend bound literally: a batch
// charges its tenant exactly what the same requests issued serially would.
func TestBatchMatchesSerialSpend(t *testing.T) {
	run := func(batch bool) float64 {
		s, ts := newTestServer(t, Config{TenantBudget: 10, Seed: 5, Workers: 1})
		items := []TopKRequest{
			{Common: Common{Tenant: "t", Epsilon: 0.7, Answers: testAnswers, Monotonic: true}, K: 2},
			{Common: Common{Tenant: "t", Epsilon: 0.9, Answers: testAnswers, Monotonic: true}, K: 3},
		}
		if batch {
			body := BatchRequest{Tenant: "t"}
			for _, it := range items {
				it.Tenant = ""
				raw, _ := json.Marshal(it)
				body.Requests = append(body.Requests, BatchItem{Mechanism: "topk", Request: raw})
			}
			if resp, data := postJSON(t, ts.URL+"/v1/batch", body); resp.StatusCode != http.StatusOK {
				t.Fatalf("batch status = %d, body = %s", resp.StatusCode, data)
			}
		} else {
			for _, it := range items {
				if resp, data := postJSON(t, ts.URL+"/v1/topk", it); resp.StatusCode != http.StatusOK {
					t.Fatalf("serial status = %d, body = %s", resp.StatusCode, data)
				}
			}
		}
		acct, _ := s.Registry().Lookup("t")
		return acct.Spent()
	}
	serial, batched := run(false), run(true)
	if math.Abs(serial-batched) > 1e-12 {
		t.Errorf("batch spent %v, serial spent %v — must be identical", batched, serial)
	}
}

func TestHealthzListsMechanisms(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, data := getJSON(t, ts.URL+"/healthz")
	health := decodeInto[HealthResponse](t, data)
	want := []string{"max", "pipeline/svt", "pipeline/topk", "svt", "topk"}
	if fmt.Sprintf("%v", health.Mechanisms) != fmt.Sprintf("%v", want) {
		t.Errorf("mechanisms = %v, want %v", health.Mechanisms, want)
	}
}

// TestBudgetLogOptIn pins the budget endpoint's two shapes: the default
// response serves the aggregated snapshot with no raw log, and ?log=1 opts
// in to the full per-charge history in admission order.
func TestBudgetLogOptIn(t *testing.T) {
	_, ts := newTestServer(t, Config{TenantBudget: 10})

	for i, eps := range []float64{1.5, 0.5} {
		resp, data := postJSON(t, ts.URL+"/v1/topk", TopKRequest{Common: Common{Tenant: "audit", Epsilon: eps, Answers: testAnswers, Monotonic: true}, K: 2})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status = %d, body = %s", i, resp.StatusCode, data)
		}
	}
	resp, data := postJSON(t, ts.URL+"/v1/max", MaxRequest{Common: Common{Tenant: "audit", Epsilon: 0.25, Answers: testAnswers}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("max status = %d, body = %s", resp.StatusCode, data)
	}

	// Default: aggregated snapshot only, no log field.
	_, data = getJSON(t, ts.URL+"/v1/tenants/audit/budget")
	budget := decodeInto[BudgetResponse](t, data)
	if budget.Log != nil {
		t.Errorf("default budget response carries a log: %+v", budget.Log)
	}
	if got := budget.SpentByMechanism["topk"]; math.Abs(got-2.0) > 1e-9 {
		t.Errorf("spent_by_mechanism[topk] = %v, want 2.0", got)
	}
	if budget.Charges != 3 {
		t.Errorf("charges = %d, want 3", budget.Charges)
	}

	// ?log=1: the raw per-charge history in admission order.
	_, data = getJSON(t, ts.URL+"/v1/tenants/audit/budget?log=1")
	budget = decodeInto[BudgetResponse](t, data)
	want := []ChargeJSON{
		{Mechanism: "topk", Epsilon: 1.5},
		{Mechanism: "topk", Epsilon: 0.5},
		{Mechanism: "max", Epsilon: 0.25},
	}
	if len(budget.Log) != len(want) {
		t.Fatalf("log = %+v, want %+v", budget.Log, want)
	}
	for i := range want {
		if budget.Log[i] != want[i] {
			t.Errorf("log[%d] = %+v, want %+v", i, budget.Log[i], want[i])
		}
	}
	var logSum float64
	for _, c := range budget.Log {
		logSum += c.Epsilon
	}
	if math.Abs(logSum-budget.Spent) > 1e-9 {
		t.Errorf("Σ log = %v, spent = %v", logSum, budget.Spent)
	}
}

// TestNonFiniteResponseIsInternalError pins what happens to a release JSON
// cannot represent. Answers spanning the float range make the noisy gap
// overflow to +Inf. The request then answers 500 internal_error naming the
// value, and its ε stays spent: the failure is a function of the noisy
// output, so the charge already covers it. In a batch only that item fails
// and the others are released.
func TestNonFiniteResponseIsInternalError(t *testing.T) {
	s, ts := newTestServer(t, Config{TenantBudget: 10})
	huge := Common{Tenant: "t", Epsilon: 1, Answers: []float64{1.7e308, -1.7e308}}
	cases := []struct {
		path string
		req  any
	}{
		{"/v1/topk", TopKRequest{Common: huge, K: 1}},
		{"/v1/topk?trace=1", TopKRequest{Common: huge, K: 1}},
		{"/v1/max", MaxRequest{Common: huge}},
		{"/v1/pipeline/topk", PipelineTopKRequest{Common: huge, K: 1}},
	}
	for i, tc := range cases {
		resp, data := postJSON(t, ts.URL+tc.path, tc.req)
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("%s: status = %d, body = %q", tc.path, resp.StatusCode, data)
		}
		env := decodeInto[ErrorEnvelope](t, data)
		if env.Error.Code != CodeInternal || !strings.Contains(env.Error.Message, "non-finite float +Inf") {
			t.Errorf("%s: error = %+v, want %s naming +Inf", tc.path, env.Error, CodeInternal)
		}
		acct, _ := s.Registry().Lookup("t")
		if got, want := acct.Spent(), float64(i+1); got != want {
			t.Errorf("%s: spent = %v, want %v", tc.path, got, want)
		}
	}

	huge.Tenant = ""
	resp, data := postJSON(t, ts.URL+"/v1/batch", batchBody(t, "b",
		"topk", TopKRequest{Common: huge, K: 1},
		"max", MaxRequest{Common: Common{Epsilon: 1, Answers: testAnswers, Monotonic: true}},
	))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status = %d, body = %q", resp.StatusCode, data)
	}
	out := decodeInto[struct {
		Results []struct {
			Response json.RawMessage `json:"response"`
			Error    *ErrorBody      `json:"error"`
		} `json:"results"`
		EpsilonSpent float64 `json:"epsilon_spent"`
	}](t, data)
	if len(out.Results) != 2 {
		t.Fatalf("batch: %d results, want 2: %s", len(out.Results), data)
	}
	if bad := out.Results[0]; bad.Response != nil || bad.Error == nil || bad.Error.Code != CodeInternal ||
		!strings.Contains(bad.Error.Message, "non-finite float +Inf") {
		t.Errorf("batch item 0 = %s, want an internal_error naming +Inf", data)
	}
	if good := out.Results[1]; good.Response == nil || good.Error != nil {
		t.Errorf("batch item 1 = %s, want a released response", data)
	}
	if out.EpsilonSpent != 2 {
		t.Errorf("batch epsilon_spent = %v, want 2", out.EpsilonSpent)
	}
}
