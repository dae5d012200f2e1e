package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
	"testing"

	"github.com/freegap/freegap/internal/core"
	"github.com/freegap/freegap/internal/engine"
	"github.com/freegap/freegap/internal/store"
	"github.com/freegap/freegap/internal/telemetry"
)

// descendingFIMI is a five-item dataset whose counts are exactly
// [5, 4, 3, 2, 1]: item 0 appears in every record, item 4 in one.
const descendingFIMI = "0 1 2 3 4\n0 1 2 3\n0 1 2\n0 1\n0\n"

func uploadDescending(t *testing.T, base, name string) {
	t.Helper()
	resp, data := postJSON(t, base+"/v1/datasets", DatasetUploadRequest{Name: name, FIMI: descendingFIMI})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload status = %d, body = %s", resp.StatusCode, data)
	}
}

func TestDatasetUploadAndInventory(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	uploadDescending(t, ts.URL, "sales")

	resp, data := getJSON(t, ts.URL+"/v1/datasets/sales")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get status = %d, body = %s", resp.StatusCode, data)
	}
	info := decodeInto[DatasetInfo](t, data)
	if info.Name != "sales" || info.Records != 5 || info.Items != 5 || info.Source != "upload:fimi" {
		t.Errorf("info = %+v", info)
	}
	if info.CountScans != 1 {
		t.Errorf("CountScans = %d, want 1 (the registration precompute)", info.CountScans)
	}

	resp, data = getJSON(t, ts.URL+"/v1/datasets")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list status = %d", resp.StatusCode)
	}
	list := decodeInto[DatasetListResponse](t, data)
	if len(list.Datasets) != 1 || list.Datasets[0].Name != "sales" {
		t.Errorf("list = %+v", list)
	}

	// The inventory shows up on /healthz too.
	resp, data = getJSON(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
	if health := decodeInto[HealthResponse](t, data); health.Datasets != 1 {
		t.Errorf("healthz datasets = %d, want 1", health.Datasets)
	}
}

func TestDatasetUploadRejects(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	uploadDescending(t, ts.URL, "sales")

	// Duplicate name: structured 409.
	resp, data := postJSON(t, ts.URL+"/v1/datasets", DatasetUploadRequest{Name: "sales", FIMI: descendingFIMI})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate status = %d, body = %s", resp.StatusCode, data)
	}
	if env := decodeInto[ErrorEnvelope](t, data); env.Error.Code != CodeDatasetExists {
		t.Errorf("duplicate code = %q, want %q", env.Error.Code, CodeDatasetExists)
	}

	bad := []DatasetUploadRequest{
		{Name: "neither"},
		{Name: "both", FIMI: "0 1\n", Synthetic: &SyntheticSpec{Kind: "bmspos"}},
		{Name: "Bad Name", FIMI: "0 1\n"},
		{Name: "badkind", Synthetic: &SyntheticSpec{Kind: "nope"}},
		{Name: "baddata", FIMI: "not numbers\n"},
	}
	for _, req := range bad {
		resp, data := postJSON(t, ts.URL+"/v1/datasets", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%q: status = %d, body = %s", req.Name, resp.StatusCode, data)
		}
	}
}

func TestDatasetUploadTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxBodyBytes: 128})
	big := DatasetUploadRequest{Name: "big", FIMI: strings.Repeat("0 1 2\n", 100)}
	resp, data := postJSON(t, ts.URL+"/v1/datasets", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, body = %s", resp.StatusCode, data)
	}
	if env := decodeInto[ErrorEnvelope](t, data); env.Error.Code != CodeRequestTooLarge {
		t.Errorf("code = %q, want %q", env.Error.Code, CodeRequestTooLarge)
	}
}

func TestDatasetSyntheticUpload(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, data := postJSON(t, ts.URL+"/v1/datasets", DatasetUploadRequest{
		Name: "demo", Synthetic: &SyntheticSpec{Kind: "bmspos", Scale: 1000, Seed: 7},
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("status = %d, body = %s", resp.StatusCode, data)
	}
	info := decodeInto[DatasetInfo](t, data)
	if info.Records == 0 || info.Items == 0 || info.Source != "synthetic:bmspos" {
		t.Errorf("info = %+v", info)
	}
}

// TestResolvedTopKEndToEnd is the acceptance path: POST /v1/topk naming a
// preloaded dataset and an all_items query spec, no inline answers, returns
// selections computed from the server-held data.
func TestResolvedTopKEndToEnd(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers:      1,
		TenantBudget: 1000,
		Datasets: func() *store.Store {
			st := store.New()
			db, err := store.GenerateSynthetic("bmspos", 1000, 7)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.Register("pos", "synthetic:bmspos", db); err != nil {
				t.Fatal(err)
			}
			return st
		}(),
	})

	resp, data := postJSON(t, ts.URL+"/v1/topk", map[string]any{
		"tenant": "acme", "k": 3, "epsilon": 100.0,
		"dataset": "pos", "queries": map[string]any{"kind": "all_items"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body = %s", resp.StatusCode, data)
	}
	out := decodeInto[TopKResponse](t, data)
	if len(out.Selections) != 3 {
		t.Fatalf("selections = %+v", out.Selections)
	}
	entry, err := s.Datasets().Get("pos")
	if err != nil {
		t.Fatal(err)
	}
	items := entry.Dataset().NumItems()
	for _, sel := range out.Selections {
		if sel.Index < 0 || sel.Index >= items {
			t.Errorf("selection index %d outside the %d-item universe", sel.Index, items)
		}
	}
	if out.EpsilonSpent != 100.0 {
		t.Errorf("epsilon spent = %v, want 100", out.EpsilonSpent)
	}
}

func TestResolvedTopKMatchesCounts(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, TenantBudget: 1e6})
	uploadDescending(t, ts.URL, "sales")

	// With ε = 1000 over 5 counting queries the noise is ~5e-3, so the true
	// descending order 0 > 1 > 2 is selected with overwhelming probability.
	resp, data := postJSON(t, ts.URL+"/v1/topk", map[string]any{
		"tenant": "acme", "k": 2, "epsilon": 1000.0,
		"dataset": "sales", "queries": map[string]any{"kind": "all_items"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body = %s", resp.StatusCode, data)
	}
	out := decodeInto[TopKResponse](t, data)
	if len(out.Selections) != 2 || out.Selections[0].Index != 0 || out.Selections[1].Index != 1 {
		t.Errorf("selections = %+v, want items 0 then 1", out.Selections)
	}
}

func TestResolvedSVTItemCount(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, TenantBudget: 1e6})
	uploadDescending(t, ts.URL, "sales")

	resp, data := postJSON(t, ts.URL+"/v1/svt", map[string]any{
		"tenant": "acme", "k": 1, "epsilon": 1000.0, "threshold": 4.5,
		"dataset": "sales", "queries": map[string]any{"kind": "item_count", "items": []int32{4, 0}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body = %s", resp.StatusCode, data)
	}
	out := decodeInto[SVTResponse](t, data)
	// Counts resolve to [1, 5]; only the second (item 0, count 5) clears 4.5.
	if out.AboveCount != 1 || len(out.Above) != 1 || out.Above[0].Index != 1 {
		t.Errorf("svt = %+v, want exactly answer index 1 above threshold", out)
	}
}

func TestResolvedPipelineAndBatch(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, TenantBudget: 1000})
	uploadDescending(t, ts.URL, "sales")

	// The Section 5.2 pipeline gains dataset resolution through the same
	// generic serving path.
	resp, data := postJSON(t, ts.URL+"/v1/pipeline/topk", map[string]any{
		"tenant": "acme", "k": 2, "epsilon": 100.0,
		"dataset": "sales", "queries": map[string]any{"kind": "all_items"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pipeline status = %d, body = %s", resp.StatusCode, data)
	}
	if out := decodeInto[PipelineTopKResponse](t, data); len(out.Estimates) != 2 {
		t.Errorf("estimates = %+v", out.Estimates)
	}

	// A batch mixing an inline item with a dataset-backed one.
	mkItem := func(v any) json.RawMessage {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	resp, data = postJSON(t, ts.URL+"/v1/batch", BatchRequest{
		Tenant: "acme",
		Requests: []BatchItem{
			{Mechanism: "max", Request: mkItem(map[string]any{"epsilon": 0.5, "answers": []float64{3, 1}, "monotonic": true})},
			{Mechanism: "topk", Request: mkItem(map[string]any{"epsilon": 1.0, "k": 1, "dataset": "sales", "queries": map[string]any{"kind": "all_items"}})},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d, body = %s", resp.StatusCode, data)
	}
	batch := decodeInto[BatchResponse](t, data)
	if len(batch.Results) != 2 {
		t.Fatalf("results = %+v", batch.Results)
	}
	for i, res := range batch.Results {
		if res.Error != nil {
			t.Errorf("results[%d] failed: %+v", i, res.Error)
		}
	}
	if batch.EpsilonSpent != 1.5 {
		t.Errorf("batch epsilon = %v, want 1.5", batch.EpsilonSpent)
	}
}

func TestResolveUnknownDataset(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	resp, data := postJSON(t, ts.URL+"/v1/topk", map[string]any{
		"tenant": "acme", "k": 1, "epsilon": 1.0,
		"dataset": "nope", "queries": map[string]any{"kind": "all_items"},
	})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, body = %s", resp.StatusCode, data)
	}
	if env := decodeInto[ErrorEnvelope](t, data); env.Error.Code != CodeUnknownDataset {
		t.Errorf("code = %q, want %q", env.Error.Code, CodeUnknownDataset)
	}

	// Unknown dataset inside a batch rejects the whole batch with the same
	// structured code, before any ε is reserved.
	item, _ := json.Marshal(map[string]any{"epsilon": 1.0, "k": 1, "dataset": "nope", "queries": map[string]any{"kind": "all_items"}})
	resp, data = postJSON(t, ts.URL+"/v1/batch", BatchRequest{
		Tenant:   "acme",
		Requests: []BatchItem{{Mechanism: "topk", Request: item}},
	})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("batch status = %d, body = %s", resp.StatusCode, data)
	}
	if env := decodeInto[ErrorEnvelope](t, data); env.Error.Code != CodeUnknownDataset {
		t.Errorf("batch code = %q, want %q", env.Error.Code, CodeUnknownDataset)
	}
	// The failed batch must not have charged the tenant (no accountant is
	// even provisioned by a rejected first request's resolution).
	resp, data = getJSON(t, ts.URL+"/v1/tenants/acme/budget")
	if resp.StatusCode == http.StatusOK {
		if budget := decodeInto[BudgetResponse](t, data); budget.Spent != 0 {
			t.Errorf("spent = %v after rejected resolutions, want 0", budget.Spent)
		}
	}
}

func TestResolveBadQuerySpec(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	uploadDescending(t, ts.URL, "sales")

	cases := []map[string]any{
		{"dataset": "sales"}, // dataset without queries
		{"dataset": "sales", "queries": map[string]any{"kind": "nope"}},
		{"dataset": "sales", "queries": map[string]any{"kind": "all_items", "items": []int32{1}}},
		{"dataset": "sales", "queries": map[string]any{"kind": "item_count"}},
		{"dataset": "sales", "queries": map[string]any{"kind": "item_count", "items": []int32{-2}}},
		{"dataset": "sales", "queries": map[string]any{"kind": "all_items"}, "answers": []float64{1, 2}},
		{"queries": map[string]any{"kind": "all_items"}}, // queries without dataset
	}
	for i, extra := range cases {
		body := map[string]any{"tenant": "acme", "k": 1, "epsilon": 1.0}
		for k, v := range extra {
			body[k] = v
		}
		resp, data := postJSON(t, ts.URL+"/v1/topk", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status = %d, body = %s", i, resp.StatusCode, data)
			continue
		}
		if env := decodeInto[ErrorEnvelope](t, data); env.Error.Code != CodeBadQuerySpec {
			t.Errorf("case %d: code = %q, want %q (body %s)", i, env.Error.Code, CodeBadQuerySpec, data)
		}
	}
}

// TestResolvedRequestsServeCachedCounts pins the tentpole's hot-path
// property: identical resolved requests are answered from the item counts
// precomputed at registration — the transactions are scanned exactly once,
// however many requests resolve — and the cache hits are observable through
// both the dataset inventory and the per-dataset telemetry counter.
func TestResolvedRequestsServeCachedCounts(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	uploadDescending(t, ts.URL, "sales")

	body := map[string]any{
		"tenant": "acme", "k": 2, "epsilon": 0.5,
		"dataset": "sales", "queries": map[string]any{"kind": "all_items"},
	}
	for i := 0; i < 2; i++ {
		resp, data := postJSON(t, ts.URL+"/v1/topk", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status = %d, body = %s", i, resp.StatusCode, data)
		}
	}

	resp, data := getJSON(t, ts.URL+"/v1/datasets/sales")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get status = %d", resp.StatusCode)
	}
	info := decodeInto[DatasetInfo](t, data)
	if info.Resolutions != 2 {
		t.Errorf("resolutions = %d, want 2", info.Resolutions)
	}
	if info.CountScans != 1 {
		t.Errorf("count scans = %d, want 1: resolved requests must not rescan the dataset", info.CountScans)
	}

	if got := s.Metrics().Counter("freegap_dataset_resolved_total", telemetry.L("dataset", "sales")).Value(); got != 2 {
		t.Errorf("freegap_dataset_resolved_total = %d, want 2", got)
	}
	resp, data = getJSON(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	want := fmt.Sprintf("freegap_dataset_resolved_total{dataset=%q} 2", "sales")
	if !strings.Contains(string(data), want) {
		t.Errorf("metrics exposition missing %q", want)
	}
}

// TestConfigPreload drives the Config.Preload path end-to-end: the server
// comes up already serving the dataset.
func TestConfigPreload(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers: 1,
		Preload: []store.Preload{{Name: "pos", Synthetic: "bmspos", Scale: 1000, Seed: 3}},
	})
	resp, data := getJSON(t, ts.URL+"/v1/datasets/pos")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body = %s", resp.StatusCode, data)
	}
	if info := decodeInto[DatasetInfo](t, data); info.Source != "synthetic:bmspos" || info.Records == 0 {
		t.Errorf("info = %+v", info)
	}

	resp, data = postJSON(t, ts.URL+"/v1/svt", map[string]any{
		"tenant": "acme", "k": 3, "epsilon": 2.0, "threshold": 50.0, "adaptive": true,
		"dataset": "pos", "queries": map[string]any{"kind": "all_items"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("svt status = %d, body = %s", resp.StatusCode, data)
	}
	// A bad preload must fail construction, not limp along.
	if _, err := New(Config{Preload: []store.Preload{{Name: "bad", Synthetic: "nope"}}}); err == nil {
		t.Error("bad preload accepted")
	}
}

// TestBatchMixesLazyAndPrenoisedItems sends one batch holding a resolved
// topk over enough items to sample lazily (no unit-noise window; it runs
// through Execute with a live source) and a resolved max below the cutoff
// (a prenoised window). At ε = 1e4 the noise scale is ~1e-3, so both must
// release the true order.
func TestBatchMixesLazyAndPrenoisedItems(t *testing.T) {
	const items = 1500
	if !(&core.TopKWithGap{}).SamplesLazily(items) || (&core.TopKWithGap{}).SamplesLazily(4) {
		t.Fatalf("the lazy cutoff no longer separates %d answers from 4", items)
	}
	// One record holds every item; record r adds items 0..11-r, so item i < 12
	// counts 13 - i and every other item counts 1.
	var fimi strings.Builder
	for i := 0; i < items; i++ {
		fmt.Fprintf(&fimi, "%d ", i)
	}
	fimi.WriteString("\n")
	for r := 0; r < 12; r++ {
		for i := 0; i <= 11-r; i++ {
			fmt.Fprintf(&fimi, "%d ", i)
		}
		fimi.WriteString("\n")
	}
	_, ts := newTestServer(t, Config{Workers: 2, TenantBudget: 1e5})
	resp, data := postJSON(t, ts.URL+"/v1/datasets", DatasetUploadRequest{Name: "wide", FIMI: fimi.String()})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload status = %d, body = %s", resp.StatusCode, data)
	}

	item := func(v any) json.RawMessage {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	resp, data = postJSON(t, ts.URL+"/v1/batch", BatchRequest{
		Tenant: "acme",
		Requests: []BatchItem{
			{Mechanism: "topk", Request: item(map[string]any{"epsilon": 1e4, "k": 10, "dataset": "wide", "queries": map[string]any{"kind": "all_items"}})},
			{Mechanism: "max", Request: item(map[string]any{"epsilon": 1e4, "dataset": "wide", "queries": map[string]any{"kind": "item_count", "items": []int{3, 700, 800, 900}}})},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d, body = %s", resp.StatusCode, data)
	}
	var out struct {
		Results []struct {
			Response json.RawMessage `json:"response"`
			Error    *ErrorBody      `json:"error"`
		} `json:"results"`
	}
	if err := json.Unmarshal(data, &out); err != nil || len(out.Results) != 2 {
		t.Fatalf("batch body %s: %v", data, err)
	}
	for i, res := range out.Results {
		if res.Error != nil {
			t.Fatalf("results[%d] failed: %+v", i, res.Error)
		}
	}

	var topk engine.TopKResponse
	if err := json.Unmarshal(out.Results[0].Response, &topk); err != nil {
		t.Fatal(err)
	}
	if len(topk.Selections) != 10 {
		t.Fatalf("topk selections = %+v", topk.Selections)
	}
	for i, sel := range topk.Selections {
		if sel.Index != i || math.Abs(sel.Gap-1) > 0.1 {
			t.Errorf("topk selection %d = %+v, want index %d with gap ≈ 1", i, sel, i)
		}
	}
	var mx engine.MaxResponse
	if err := json.Unmarshal(out.Results[1].Response, &mx); err != nil {
		t.Fatal(err)
	}
	if mx.Index != 0 || math.Abs(mx.Gap-9) > 0.1 {
		t.Errorf("max = index %d gap %v, want index 0 with gap ≈ 9", mx.Index, mx.Gap)
	}
}
