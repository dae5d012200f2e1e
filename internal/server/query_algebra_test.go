package server

import (
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"github.com/freegap/freegap/internal/query/plan"
	"github.com/freegap/freegap/internal/telemetry"
)

// compositeBody is a union of a cached leaf and a filter scan over the
// descending five-item dataset — the smallest spec that exercises the
// compiler, a record scan, and the plan cache at once.
func compositeBody(dataset string) map[string]any {
	return map[string]any{
		"tenant": "acme", "k": 2, "epsilon": 0.5, "dataset": dataset,
		"queries": map[string]any{
			"kind": "union",
			"of": []any{
				map[string]any{"kind": "item_count", "items": []int32{0, 1}},
				map[string]any{"kind": "filter", "where": map[string]any{"contains": []int32{3}}},
			},
		},
	}
}

// TestCompositeQuerySpecServing pins the tentpole end-to-end: a composite
// spec resolves through the query compiler on a mechanism endpoint, the
// filter scan is charged to count_scans exactly once, and the repeat of a
// canonically equal spec is a plan-cache hit that rescans nothing.
func TestCompositeQuerySpecServing(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	uploadDescending(t, ts.URL, "sales")

	resp, data := postJSON(t, ts.URL+"/v1/topk", compositeBody("sales"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("composite topk status = %d, body = %s", resp.StatusCode, data)
	}

	// Operand order swapped: canonicalization must hit the same cached plan.
	swapped := compositeBody("sales")
	swapped["queries"] = map[string]any{
		"kind": "union",
		"of": []any{
			map[string]any{"kind": "filter", "where": map[string]any{"contains": []int32{3}}},
			map[string]any{"kind": "item_count", "items": []int32{1, 0, 0}},
		},
	}
	resp, data = postJSON(t, ts.URL+"/v1/topk", swapped)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("swapped composite status = %d, body = %s", resp.StatusCode, data)
	}

	resp, data = getJSON(t, ts.URL+"/v1/datasets/sales")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("info status = %d", resp.StatusCode)
	}
	info := decodeInto[DatasetInfo](t, data)
	if info.CountScans != 2 {
		t.Errorf("count_scans = %d, want 2 (registration + one filter scan; the repeat must hit the plan cache)", info.CountScans)
	}
	if info.PlanCacheEntries != 1 {
		t.Errorf("plan_cache_entries = %d, want 1", info.PlanCacheEntries)
	}
	if info.Resolutions != 2 {
		t.Errorf("resolutions = %d, want 2", info.Resolutions)
	}
	if info.SketchBlocks != 1 {
		t.Errorf("sketch_blocks = %d, want 1 for a five-record dataset", info.SketchBlocks)
	}

	if hits := s.Metrics().Counter("freegap_plan_cache_hits_total").Value(); hits != 1 {
		t.Errorf("freegap_plan_cache_hits_total = %d, want 1", hits)
	}
	if misses := s.Metrics().Counter("freegap_plan_cache_misses_total").Value(); misses != 1 {
		t.Errorf("freegap_plan_cache_misses_total = %d, want 1", misses)
	}
	resp, data = getJSON(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	for _, want := range []string{
		"freegap_plan_cache_hits_total 1",
		"freegap_plan_cache_misses_total 1",
		"freegap_plan_compile_seconds",
	} {
		if !strings.Contains(string(data), want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

// TestCompositeSpecsOnEveryEndpoint runs one composite spec through each
// mechanism family and the batch endpoint.
func TestCompositeSpecsOnEveryEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	uploadDescending(t, ts.URL, "sales")

	queries := map[string]any{
		"kind": "minus",
		"of": []any{
			map[string]any{"kind": "all_items"},
			map[string]any{"kind": "threshold", "min_count": 5, "of": []any{map[string]any{"kind": "all_items"}}},
		},
	}
	for path, body := range map[string]map[string]any{
		"/v1/topk":          {"tenant": "t", "k": 1, "epsilon": 1.0, "dataset": "sales", "queries": queries},
		"/v1/max":           {"tenant": "t", "epsilon": 1.0, "dataset": "sales", "queries": queries},
		"/v1/svt":           {"tenant": "t", "k": 1, "epsilon": 1.0, "threshold": 2.0, "dataset": "sales", "queries": queries},
		"/v1/pipeline/topk": {"tenant": "t", "k": 1, "epsilon": 1.0, "dataset": "sales", "queries": queries},
	} {
		resp, data := postJSON(t, ts.URL+path, body)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status = %d, body = %s", path, resp.StatusCode, data)
		}
	}

	batch := map[string]any{
		"tenant": "t",
		"requests": []any{
			map[string]any{"mechanism": "topk", "request": map[string]any{
				"k": 1, "epsilon": 1.0, "dataset": "sales", "queries": queries,
			}},
		},
	}
	resp, data := postJSON(t, ts.URL+"/v1/batch", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d, body = %s", resp.StatusCode, data)
	}
	br := decodeInto[BatchResponse](t, data)
	if len(br.Results) != 1 || br.Results[0].Error != nil {
		t.Errorf("batch results = %+v", br.Results)
	}
}

// TestResolvedMonotonicFlagIsServerDecided pins that a client's "monotonic"
// flag cannot change how a resolved spec is released: the planner decides
// whether the resolved queries are monotone. Two identically seeded servers
// answer the same spec, one request flagged monotonic and one not; the
// releases must match bit for bit. For a threshold or minus spec the flag
// would otherwise halve the noise scale of a non-monotone query list.
func TestResolvedMonotonicFlagIsServerDecided(t *testing.T) {
	allItems := map[string]any{"kind": "all_items"}
	for _, spec := range []map[string]any{
		{"kind": "threshold", "min_count": 2, "of": []any{allItems}},
		{"kind": "minus", "of": []any{allItems, map[string]any{"kind": "item_count", "items": []int32{4}}}},
		{"kind": "filter", "where": map[string]any{"min_len": 2}},
	} {
		var topk [2][]SelectionJSON
		var svt [2][]SVTAnswerJSON
		for i, monotonic := range []bool{false, true} {
			_, ts := newTestServer(t, Config{Workers: 1, Seed: 11})
			uploadDescending(t, ts.URL, "sales")
			resp, data := postJSON(t, ts.URL+"/v1/topk", map[string]any{
				"tenant": "t", "k": 2, "epsilon": 1.0, "monotonic": monotonic,
				"dataset": "sales", "queries": spec,
			})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%v topk: status = %d, body = %s", spec["kind"], resp.StatusCode, data)
			}
			topk[i] = decodeInto[TopKResponse](t, data).Selections
			resp, data = postJSON(t, ts.URL+"/v1/svt", map[string]any{
				"tenant": "t", "k": 2, "epsilon": 1.0, "threshold": 2.5, "monotonic": monotonic,
				"dataset": "sales", "queries": spec,
			})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%v svt: status = %d, body = %s", spec["kind"], resp.StatusCode, data)
			}
			svt[i] = decodeInto[SVTResponse](t, data).Above
		}
		if !reflect.DeepEqual(topk[0], topk[1]) {
			t.Errorf("%v topk: monotonic=false released %+v, monotonic=true released %+v",
				spec["kind"], topk[0], topk[1])
		}
		if !reflect.DeepEqual(svt[0], svt[1]) {
			t.Errorf("%v svt: monotonic=false released %+v, monotonic=true released %+v",
				spec["kind"], svt[0], svt[1])
		}
	}
}

func TestExplainEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	uploadDescending(t, ts.URL, "sales")

	// First explain compiles and caches; the repeat replays the cached plan.
	for i, wantCached := range []bool{false, true} {
		resp, data := postJSON(t, ts.URL+"/v1/topk?explain=1", compositeBody("sales"))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("explain %d: status = %d, body = %s", i, resp.StatusCode, data)
		}
		ex := decodeInto[plan.Explain](t, data)
		if ex.Cached != wantCached {
			t.Errorf("explain %d: cached = %v, want %v", i, ex.Cached, wantCached)
		}
		if i == 0 {
			if ex.Dataset != "sales" || ex.Plan == nil || ex.Plan.Op != "union" {
				t.Errorf("explain = %+v", ex)
			}
			if len(ex.Hash) != 16 || ex.Canonical == "" {
				t.Errorf("explain hash %q canonical %q", ex.Hash, ex.Canonical)
			}
		}
	}

	// Explain never charges budget: the tenant above only ran explains, so
	// no ledger entry was ever opened for it.
	resp, data := getJSON(t, ts.URL+"/v1/tenants/acme/budget")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("tenant has a ledger after explain-only traffic: status = %d, body = %s", resp.StatusCode, data)
	}

	// The legacy leaf kinds explain too, as trivial cached-counts plans.
	legacy := map[string]any{
		"tenant": "t", "k": 1, "epsilon": 1.0, "dataset": "sales",
		"queries": map[string]any{"kind": "all_items"},
	}
	resp, data = postJSON(t, ts.URL+"/v1/topk?explain=1", legacy)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("legacy explain status = %d, body = %s", resp.StatusCode, data)
	}
	if ex := decodeInto[plan.Explain](t, data); !ex.Cached || ex.Plan == nil || ex.Plan.Op != "cached_counts" {
		t.Errorf("legacy explain = %+v", ex)
	}

	// Explain requires a resolvable dataset-backed request.
	for i, body := range []map[string]any{
		{"tenant": "t", "k": 1, "epsilon": 1.0, "answers": []float64{1, 2}},
		{"tenant": "t", "k": 1, "epsilon": 1.0},
		{"tenant": "t", "k": 1, "epsilon": 1.0, "dataset": "nope", "queries": map[string]any{"kind": "all_items"}},
	} {
		resp, _ := postJSON(t, ts.URL+"/v1/topk?explain=1", body)
		if resp.StatusCode == http.StatusOK {
			t.Errorf("bad explain case %d: got 200", i)
		}
	}
}

// TestCompositeSpecCaps drives the structured 400s: depth and size caps,
// malformed composites, superfluous fields.
func TestCompositeSpecCaps(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	uploadDescending(t, ts.URL, "sales")

	// depth 9 > MaxSpecDepth=8.
	deep := map[string]any{"kind": "all_items"}
	for i := 0; i < 8; i++ {
		deep = map[string]any{"kind": "threshold", "min_count": 1, "of": []any{deep}}
	}
	// 65 nodes > MaxSpecNodes=64.
	leaves := make([]any, 64)
	for i := range leaves {
		leaves[i] = map[string]any{"kind": "item_count", "items": []int32{int32(i)}}
	}
	wide := map[string]any{"kind": "union", "of": leaves}

	cases := []map[string]any{
		{"kind": "threshold", "min_count": 1},                                   // missing operand
		{"kind": "threshold", "of": []any{map[string]any{"kind": "all_items"}}}, // no bounds
		{"kind": "filter"}, // missing where
		{"kind": "filter", "where": map[string]any{}},                       // empty predicate
		{"kind": "filter", "where": map[string]any{"min_len": -1}},          // negative bound
		{"kind": "union", "of": []any{map[string]any{"kind": "all_items"}}}, // one operand
		{"kind": "minus", "of": []any{
			map[string]any{"kind": "all_items"},
			map[string]any{"kind": "all_items"},
			map[string]any{"kind": "all_items"}}}, // three operands
		{"kind": "join", "of": []any{map[string]any{"kind": "all_items"}}},      // no dataset
		{"kind": "all_items", "of": []any{map[string]any{"kind": "all_items"}}}, // superfluous field
		{"kind": "item_count", "items": []int32{1}, "min_count": 2.0},           // superfluous field
		deep,
		wide,
	}
	for i, q := range cases {
		body := map[string]any{"tenant": "t", "k": 1, "epsilon": 1.0, "dataset": "sales", "queries": q}
		resp, data := postJSON(t, ts.URL+"/v1/topk", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status = %d, body = %s", i, resp.StatusCode, data)
			continue
		}
		if env := decodeInto[ErrorEnvelope](t, data); env.Error.Code != CodeBadQuerySpec {
			t.Errorf("case %d: code = %q, want %q", i, env.Error.Code, CodeBadQuerySpec)
		}
	}
}

// TestRecordsSkippedObservability uploads a clustered dataset wide enough
// for multiple zone blocks and checks the skipping observables move — and
// stay still under Config.DisableQuerySkipping.
func TestRecordsSkippedObservability(t *testing.T) {
	var fimi strings.Builder
	for b := 0; b < 3; b++ {
		for i := 0; i < 2048; i++ {
			fmt.Fprintf(&fimi, "%d %d\n", b*8, b*8+i%8)
		}
	}
	selective := map[string]any{
		"tenant": "t", "k": 1, "epsilon": 1.0, "dataset": "big",
		"queries": map[string]any{
			"kind": "filter", "where": map[string]any{"contains": []int32{20}},
		},
	}

	for _, disable := range []bool{false, true} {
		s, ts := newTestServer(t, Config{Workers: 1, DisableQuerySkipping: disable})
		resp, data := postJSON(t, ts.URL+"/v1/datasets", DatasetUploadRequest{Name: "big", FIMI: fimi.String()})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("upload status = %d, body = %s", resp.StatusCode, data)
		}
		resp, data = postJSON(t, ts.URL+"/v1/topk", selective)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("disable=%v: topk status = %d, body = %s", disable, resp.StatusCode, data)
		}
		resp, data = getJSON(t, ts.URL+"/v1/datasets/big")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("info status = %d", resp.StatusCode)
		}
		info := decodeInto[DatasetInfo](t, data)
		if info.SketchBlocks != 3 {
			t.Errorf("disable=%v: sketch_blocks = %d, want 3", disable, info.SketchBlocks)
		}
		skipped := s.Metrics().Counter("freegap_records_skipped_total", telemetry.L("dataset", "big")).Value()
		if disable {
			if info.RecordsSkipped != 0 || skipped != 0 {
				t.Errorf("skipping disabled but records_skipped = %d (metric %d)", info.RecordsSkipped, skipped)
			}
		} else {
			if info.RecordsSkipped != 4096 {
				t.Errorf("records_skipped = %d, want 4096 (two full blocks)", info.RecordsSkipped)
			}
			if skipped != 4096 {
				t.Errorf("freegap_records_skipped_total = %d, want 4096", skipped)
			}
		}
	}
}
