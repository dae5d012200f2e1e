package engine

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/freegap/freegap/internal/rng"
)

var testAnswers = []float64{812, 641, 633, 601, 425, 124, 77, 8}

// goldenRequests holds one canonical request body per registered mechanism.
// The golden test fails if a mechanism is registered without an entry here,
// so every future mechanism must prove its request/response JSON round-trips.
var goldenRequests = map[string]string{
	"topk":          `{"tenant":"acme","epsilon":1,"answers":[812,641,633,601,425,124,77,8],"monotonic":true,"k":3}`,
	"max":           `{"tenant":"acme","epsilon":0.5,"answers":[812,641,633,601,425,124,77,8],"monotonic":true}`,
	"svt":           `{"tenant":"acme","epsilon":2,"answers":[812,641,633,601,425,124,77,8],"monotonic":true,"k":2,"threshold":500,"adaptive":true}`,
	"pipeline/topk": `{"tenant":"acme","epsilon":2,"answers":[812,641,633,601,425,124,77,8],"monotonic":true,"k":3,"select_fraction":0.5}`,
	"pipeline/svt":  `{"tenant":"acme","epsilon":2,"answers":[812,641,633,601,425,124,77,8],"monotonic":true,"k":2,"threshold":500,"adaptive":true,"confidence":0.9}`,
}

// decodeStrict mirrors the serving layer's strict JSON decoding.
func decodeStrict(t *testing.T, data string, dst any) error {
	t.Helper()
	dec := json.NewDecoder(strings.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(dst)
}

// TestGoldenRequestResponseRoundTrip is the registry golden test: every
// registered mechanism must decode its canonical request, re-encode it to
// the same bytes, execute, and produce a response that survives an
// encode/decode round trip unchanged.
func TestGoldenRequestResponseRoundTrip(t *testing.T) {
	reg := DefaultRegistry()
	names := reg.Names()
	if len(names) != len(goldenRequests) {
		t.Fatalf("registry has %d mechanisms %v but %d golden requests — add a golden entry for every mechanism",
			len(names), names, len(goldenRequests))
	}
	for _, name := range names {
		t.Run(strings.ReplaceAll(name, "/", "_"), func(t *testing.T) {
			golden, ok := goldenRequests[name]
			if !ok {
				t.Fatalf("no golden request for registered mechanism %q", name)
			}
			mech, err := reg.Get(name)
			if err != nil {
				t.Fatalf("Get(%q): %v", name, err)
			}
			if mech.Name() != name {
				t.Fatalf("mechanism registered as %q names itself %q", name, mech.Name())
			}

			// Request JSON → struct → JSON must be the identity.
			req := mech.NewRequest()
			if err := decodeStrict(t, golden, req); err != nil {
				t.Fatalf("decoding golden request: %v", err)
			}
			re, err := json.Marshal(req)
			if err != nil {
				t.Fatalf("re-encoding request: %v", err)
			}
			var buf bytes.Buffer
			if err := json.Compact(&buf, []byte(golden)); err != nil {
				t.Fatal(err)
			}
			if got, want := string(re), buf.String(); got != want {
				t.Errorf("request did not round-trip:\n got %s\nwant %s", got, want)
			}

			if err := mech.Validate(req, Limits{}); err != nil {
				t.Fatalf("golden request failed validation: %v", err)
			}
			if cost := mech.Cost(req); cost != req.Base().Epsilon {
				t.Errorf("Cost = %v, want the request epsilon %v", cost, req.Base().Epsilon)
			}

			// Execute and round-trip the response through JSON into a fresh
			// instance of the same concrete type.
			resp, err := mech.Execute(rng.NewXoshiro(42), req, nil)
			if err != nil {
				t.Fatalf("Execute: %v", err)
			}
			resp.SetBilling(req.Base().Tenant, mech.Cost(req), 1.25)
			data, err := json.Marshal(resp)
			if err != nil {
				t.Fatalf("encoding response: %v", err)
			}
			fresh := reflect.New(reflect.TypeOf(resp).Elem()).Interface()
			if err := decodeStrict(t, string(data), fresh); err != nil {
				t.Fatalf("decoding response %s: %v", data, err)
			}
			if !reflect.DeepEqual(resp, fresh) {
				t.Errorf("response did not round-trip:\nexecuted %#v\ndecoded  %#v", resp, fresh)
			}
		})
	}
}

func TestDeterministicExecution(t *testing.T) {
	reg := DefaultRegistry()
	for name, golden := range goldenRequests {
		mech, err := reg.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		run := func() string {
			req := mech.NewRequest()
			if err := decodeStrict(t, golden, req); err != nil {
				t.Fatal(err)
			}
			resp, err := mech.Execute(rng.NewXoshiro(7), req, nil)
			if err != nil {
				t.Fatal(err)
			}
			data, _ := json.Marshal(resp)
			return string(data)
		}
		if a, b := run(), run(); a != b {
			t.Errorf("%s: same seed produced different responses:\n%s\n%s", name, a, b)
		}
	}
}

func TestValidateRejections(t *testing.T) {
	reg := DefaultRegistry()
	cases := []struct {
		name string
		mech string
		body string
	}{
		{"empty tenant", "topk", `{"tenant":"","epsilon":1,"answers":[1,2,3],"k":1}`},
		{"oversized tenant", "max", `{"tenant":"` + strings.Repeat("x", MaxTenantNameLen+1) + `","epsilon":1,"answers":[1,2,3]}`},
		{"zero epsilon", "topk", `{"tenant":"t","epsilon":0,"answers":[1,2,3],"k":1}`},
		{"below-minimum epsilon", "max", `{"tenant":"t","epsilon":1e-12,"answers":[1,2,3]}`},
		{"empty answers", "topk", `{"tenant":"t","epsilon":1,"answers":[],"k":1}`},
		{"k zero", "topk", `{"tenant":"t","epsilon":1,"answers":[1,2,3],"k":0}`},
		{"k too large", "topk", `{"tenant":"t","epsilon":1,"answers":[1,2,3],"k":3}`},
		{"one answer for max", "max", `{"tenant":"t","epsilon":1,"answers":[1]}`},
		{"svt k zero", "svt", `{"tenant":"t","epsilon":1,"answers":[1,2,3],"k":0,"threshold":1}`},
		{"pipeline k too large", "pipeline/topk", `{"tenant":"t","epsilon":1,"answers":[1,2,3],"k":3}`},
		{"bad select fraction", "pipeline/topk", `{"tenant":"t","epsilon":1,"answers":[1,2,3],"k":1,"select_fraction":1.5}`},
		{"negative select fraction", "pipeline/svt", `{"tenant":"t","epsilon":1,"answers":[1,2,3],"k":1,"threshold":1,"select_fraction":-0.1}`},
		{"bad confidence", "pipeline/svt", `{"tenant":"t","epsilon":1,"answers":[1,2,3],"k":1,"threshold":1,"confidence":2}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mech, err := reg.Get(tc.mech)
			if err != nil {
				t.Fatal(err)
			}
			req := mech.NewRequest()
			if err := decodeStrict(t, tc.body, req); err != nil {
				t.Fatalf("decode: %v", err)
			}
			if err := mech.Validate(req, Limits{}); err == nil {
				t.Errorf("Validate accepted %s", tc.body)
			}
		})
	}

	// Non-finite answers and threshold cannot arrive via JSON but can via
	// direct library use.
	topk, _ := reg.Get("topk")
	if err := topk.Validate(&TopKRequest{
		Common: Common{Tenant: "t", Epsilon: 1, Answers: []float64{1, math.NaN(), 3}}, K: 1,
	}, Limits{}); err == nil {
		t.Error("NaN answer accepted")
	}
	svt, _ := reg.Get("svt")
	if err := svt.Validate(&SVTRequest{
		Common: Common{Tenant: "t", Epsilon: 1, Answers: []float64{1, 2, 3}}, K: 1, Threshold: math.Inf(1),
	}, Limits{}); err == nil {
		t.Error("infinite threshold accepted")
	}

	// The MaxAnswers limit is enforced when set and ignored at zero.
	big := &MaxRequest{Common: Common{Tenant: "t", Epsilon: 1, Answers: testAnswers}}
	mx, _ := reg.Get("max")
	if err := mx.Validate(big, Limits{MaxAnswers: 4}); err == nil {
		t.Error("answers over MaxAnswers accepted")
	}
	if err := mx.Validate(big, Limits{}); err != nil {
		t.Errorf("unlimited Limits rejected a valid request: %v", err)
	}

	// The wrong concrete request type is a dispatch bug, not a panic.
	if err := topk.Validate(big, Limits{}); err == nil {
		t.Error("topk accepted a MaxRequest")
	}
	if _, err := topk.Execute(rng.NewXoshiro(1), big, nil); err == nil {
		t.Error("topk executed a MaxRequest")
	}
}

func TestRegistry(t *testing.T) {
	reg := DefaultRegistry()
	if _, err := reg.Get("nope"); err == nil {
		t.Error("unknown mechanism resolved")
	}
	m, err := reg.Get("topk")
	if err != nil || m.Name() != "topk" {
		t.Errorf("Get(topk) = %v, %v", m, err)
	}

	want := []string{"max", "pipeline/svt", "pipeline/topk", "svt", "topk"}
	if got := DefaultRegistry().Names(); !reflect.DeepEqual(got, want) {
		t.Errorf("DefaultRegistry().Names() = %v, want %v", got, want)
	}
	mechs := DefaultRegistry().Mechanisms()
	for i, mech := range mechs {
		if mech.Name() != want[i] {
			t.Errorf("Mechanisms()[%d] = %q, want %q", i, mech.Name(), want[i])
		}
	}
}

// TestPipelineResponsesCarryTheProtocolOutputs pins the pipeline mechanisms
// to the paper's workflows: refined estimates, error ratios, lower bounds.
func TestPipelineResponsesCarryTheProtocolOutputs(t *testing.T) {
	reg := DefaultRegistry()

	topk, _ := reg.Get("pipeline/topk")
	req := &PipelineTopKRequest{
		Common: Common{Tenant: "t", Epsilon: 10, Answers: testAnswers, Monotonic: true}, K: 3,
	}
	if err := topk.Validate(req, Limits{}); err != nil {
		t.Fatal(err)
	}
	resp, err := topk.Execute(rng.NewXoshiro(3), req, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := resp.(*PipelineTopKResponse)
	if len(tr.Estimates) != 3 {
		t.Fatalf("got %d estimates, want 3", len(tr.Estimates))
	}
	if !(tr.TheoreticalErrorRatio > 0 && tr.TheoreticalErrorRatio < 1) {
		t.Errorf("error ratio %v not in (0, 1)", tr.TheoreticalErrorRatio)
	}
	if !(tr.MeasurementVariance > 0) {
		t.Errorf("measurement variance %v not positive", tr.MeasurementVariance)
	}

	svt, _ := reg.Get("pipeline/svt")
	sreq := &PipelineSVTRequest{
		Common: Common{Tenant: "t", Epsilon: 10, Answers: testAnswers, Monotonic: true},
		K:      2, Threshold: 500, Adaptive: true,
	}
	if err := svt.Validate(sreq, Limits{}); err != nil {
		t.Fatal(err)
	}
	resp, err = svt.Execute(rng.NewXoshiro(3), sreq, nil)
	if err != nil {
		t.Fatal(err)
	}
	sr := resp.(*PipelineSVTResponse)
	if sr.AboveCount != len(sr.Estimates) {
		t.Errorf("above_count %d != %d estimates", sr.AboveCount, len(sr.Estimates))
	}
	for _, est := range sr.Estimates {
		if est.LowerBound >= est.GapEstimate {
			t.Errorf("lower bound %v not below the gap estimate %v", est.LowerBound, est.GapEstimate)
		}
		if !(est.CombinedVariance > 0) {
			t.Errorf("combined variance %v not positive", est.CombinedVariance)
		}
	}
	if !(sr.MechanismSpent > 0 && sr.MechanismSpent <= sreq.Epsilon+1e-9) {
		t.Errorf("mechanism spent %v outside (0, ε]", sr.MechanismSpent)
	}
}
