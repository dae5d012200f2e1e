package engine

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"testing"
)

// stdlibStrictDecode is the serving layer's reference decoder: strict
// unknown-field handling plus the one-value-per-body check.
func stdlibStrictDecode(data []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("body holds more than one JSON value")
	}
	return nil
}

// codecResponses enumerates one edge-heavy value per response type. Floats
// cover both formatting regimes (%f and %e with exponent trimming), zero,
// negative zero, and subnormals; strings cover HTML escaping, control
// characters, U+2028/9, and invalid UTF-8; slices cover nil and empty.
func codecResponses() map[string]Response {
	billing := Billing{Tenant: "tenant-<&>\n\x01ſ\u2028\u2029\xff\xfe", EpsilonSpent: 1e-7, BudgetRemaining: 0.99}
	return map[string]Response{
		"topk": &TopKResponse{
			Billing: billing,
			Selections: []SelectionJSON{
				{Index: 0, Gap: 12.25},
				{Index: -3, Gap: -0.0000001},
				{Index: math.MaxInt32, Gap: 1e21},
				{Index: 7, Gap: math.Copysign(0, -1)},
				{Index: 8, Gap: 5e-324},
			},
		},
		"topk-empty":     &TopKResponse{Billing: billing, Selections: []SelectionJSON{}},
		"topk-nil":       &TopKResponse{Billing: billing},
		"max":            &MaxResponse{Billing: billing, Index: 41, Gap: 0.30000000000000004},
		"max-zero":       &MaxResponse{},
		"svt":            &SVTResponse{Billing: billing, Above: []SVTAnswerJSON{{Index: 2, Gap: 1.5, Estimate: 11.5, Branch: "top"}, {Index: 9, Gap: 1e-6, Estimate: 9.999999e20, Branch: "middle"}}, AboveCount: 2, QueriesProcessed: 10, MechanismSpent: 0.125},
		"svt-nil-above":  &SVTResponse{Billing: billing, AboveCount: 0, QueriesProcessed: 3, MechanismSpent: 1e6},
		"svt-empty":      &SVTResponse{Billing: billing, Above: []SVTAnswerJSON{}},
		"pipeline-topk":  &PipelineTopKResponse{Billing: billing, Estimates: []PipelineTopKEstimateJSON{{Index: 1, Measured: 100.5, Refined: 101.23456789012345, Gap: 0.5}}, MeasurementVariance: 800, TheoreticalErrorRatio: 0.6457},
		"pipeline-topk0": &PipelineTopKResponse{Billing: billing, Estimates: []PipelineTopKEstimateJSON{}},
		"pipeline-svt":   &PipelineSVTResponse{Billing: billing, Estimates: []PipelineSVTEstimateJSON{{Index: 4, Branch: "below", GapEstimate: 10, Measured: 9.5, Combined: 9.75, CombinedVariance: 12.5, LowerBound: 7.25}}, AboveCount: 1, MechanismSpent: 0.5, SelectionRemaining: 0.125},
		"pipeline-svt0":  &PipelineSVTResponse{Billing: billing, Estimates: nil, AboveCount: 0},
	}
}

// TestAppendResponseGolden pins every codec's output byte-identical to
// encoding/json.
func TestAppendResponseGolden(t *testing.T) {
	for name, resp := range codecResponses() {
		want, err := json.Marshal(resp)
		if err != nil {
			t.Fatalf("%s: stdlib marshal: %v", name, err)
		}
		got, _, ok, err := AppendResponse(nil, resp)
		if !ok || err != nil {
			t.Fatalf("%s: AppendResponse ok=%v err=%v", name, ok, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: codec output differs from encoding/json\n got: %s\nwant: %s", name, got, want)
		}
	}
}

// TestAppendResponseTraceSplice pins the trace splice: inserting the
// `,"trace":...` member at traceOff must reproduce json.Marshal with
// Billing.Trace set.
func TestAppendResponseTraceSplice(t *testing.T) {
	trace := map[string]any{"request_id": "r-1", "total_us": 12.5}
	traceJSON, err := json.Marshal(trace)
	if err != nil {
		t.Fatal(err)
	}
	for name, resp := range codecResponses() {
		out, off, ok, err := AppendResponse(nil, resp)
		if !ok || err != nil {
			t.Fatalf("%s: AppendResponse ok=%v err=%v", name, ok, err)
		}
		var spliced bytes.Buffer
		spliced.Write(out[:off])
		spliced.WriteString(`,"trace":`)
		spliced.Write(traceJSON)
		spliced.Write(out[off:])

		// The stdlib reference with the trace set on the embedded Billing.
		reflect.ValueOf(resp).Elem().FieldByName("Billing").Addr().Interface().(*Billing).Trace = trace
		want, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(spliced.Bytes(), want) {
			t.Errorf("%s: spliced trace differs from encoding/json\n got: %s\nwant: %s", name, spliced.Bytes(), want)
		}
	}
}

// TestAppendResponseFallbacks pins what the codec refuses: an inline trace
// or an unknown type reports ok = false, and a non-finite float reports an
// error, which the server turns into an internal_error.
func TestAppendResponseFallbacks(t *testing.T) {
	withTrace := &MaxResponse{Billing: Billing{Trace: "inline"}}
	if _, _, ok, _ := AppendResponse(nil, withTrace); ok {
		t.Error("response with an inline trace must fall back to encoding/json")
	}
	if _, _, ok, _ := AppendResponse(nil, &struct{ Billing }{}); ok {
		t.Error("unknown response type must fall back to encoding/json")
	}
	if _, _, ok, err := AppendResponse(nil, &MaxResponse{Gap: math.Inf(1)}); !ok || err == nil {
		t.Error("non-finite float must report an error so the caller falls back")
	}
}

// codecBodies is the decoder-agreement corpus: per mechanism, bodies that
// must decode identically (accept/reject and resulting value) under the
// codec and the stdlib strict decoder.
var codecBodies = []string{
	`{"tenant":"acme","epsilon":0.5,"answers":[1,2,3],"k":1}`,
	`{"tenant":"acme","epsilon":1.5,"answers":[812,641,633],"k":2,"threshold":630.5,"adaptive":true}`,
	`{"tenant":"acme","epsilon":1,"answers":[1,2],"select_fraction":0.25,"confidence":0.9}`,
	`{"TENANT":"upper","EPSILON":2,"Answers":[9,8],"K":1,"Threshold":1,"Adaptive":false,"Monotonic":true}`,
	`{"ſ":1}`,              // folds to "s": unknown either way
	`{"\u006b":3}`,         // escaped key "k"
	`{"k":1,"k":2,"k":3}`,  // last wins
	`{"k":null}`,           // null leaves the field unchanged
	`{"answers":[1,null]}`, // null element leaves a zero
	`{"answers":[]}`,       // empty non-nil slice
	`{"answers":[1,2],"answers":[3]}`,
	`{"tenant":"\u0041\uD83D\uDE00\uD800x\u2028"}`, // surrogate pair, lone surrogate, U+2028
	`{"tenant":"` + "\xff\xfe" + `"}`,              // invalid UTF-8 → U+FFFD
	`{"dataset":"pos","queries":{"kind":"all_items"}}`,
	`{"queries":{"kind":"item_count","items":[1,2,3]},"dataset":"pos"}`,
	`{"queries":{"kind":"a"},"queries":{"items":[7]}}`, // duplicate merges into the same pointer
	`{"queries":null}`,
	`{"queries":{"kind":"item_count","items":[2147483647,-2147483648]}}`,
	`{"queries":{"kind":"item_count","items":[2147483648]}}`, // int32 overflow: error
	// Composite spec grammar: filters, thresholds, set algebra, joins.
	`{"queries":{"kind":"filter","where":{"contains":[1,2],"min_len":2,"max_len":8}}}`,
	`{"queries":{"kind":"filter","where":{}}}`,
	`{"queries":{"kind":"threshold","min_count":3,"of":[{"kind":"all_items"}]}}`,
	`{"queries":{"kind":"threshold","max_count":1e309,"of":[{"kind":"all_items"}]}}`, // float overflow: error
	`{"queries":{"kind":"union","of":[{"kind":"item_count","items":[1]},{"kind":"filter","where":{"contains":[2]}}]}}`,
	`{"queries":{"kind":"intersect","of":[{"kind":"all_items"},{"kind":"all_items"},{"kind":"all_items"}]}}`,
	`{"queries":{"kind":"minus","of":[{"kind":"all_items"},{"kind":"item_count","items":[3]}]}}`,
	`{"queries":{"kind":"join","dataset":"other","of":[{"kind":"all_items"}],"on":{"kind":"item_count","items":[1,2]}}}`,
	`{"queries":{"kind":"union","of":[{"kind":"union","of":[{"kind":"union","of":[{"kind":"all_items"},{"kind":"all_items"}]},{"kind":"all_items"}]},{"kind":"all_items"}]}}`,
	`{"queries":{"where":null}}`,                                   // null clears the predicate pointer
	`{"queries":{"of":null}}`,                                      // null clears the operand slice
	`{"queries":{"of":[]}}`,                                        // empty non-nil operand slice
	`{"queries":{"of":[null]}}`,                                    // null element leaves a nil pointer
	`{"queries":{"on":null}}`,                                      // null clears the join key pointer
	`{"queries":{"of":[{"kind":"a"}],"of":[{"items":[7]}]}}`,       // duplicate merges element-wise
	`{"queries":{"where":{"min_len":1},"where":{"contains":[5]}}}`, // duplicate merges into the same predicate
	`{"queries":{"on":{"kind":"a"},"on":{"items":[9]}}}`,           // duplicate merges into the same pointer
	`{"queries":{"of":[{"kind":"a"},{"kind":"b"}],"of":[null,{"items":[1]}]}}`,
	`{"queries":{"kind":"filter","where":{"contains":[2147483648]}}}`, // int32 overflow: error
	`{"queries":{"kind":"filter","where":{"min_len":1.5}}}`,           // fraction into int: error
	`{"queries":{"kind":"union","of":[{"kind":"threshold","min_count":0.5,"of":[{"kind":"join","dataset":"d","of":[{"kind":"filter","where":{"max_len":3}}]}]}]}}`,
	`{"epsilon":1e309}`,           // float overflow: error
	`{"epsilon":1e-999}`,          // float underflow: stdlib errors too
	`{"k":1e2}`,                   // exponent into int: error
	`{"k":1.5}`,                   // fraction into int: error
	`{"k":-0}`,                    // ParseInt accepts -0
	`{"epsilon":0.125e+02}`,       // exponent grammar
	`{"epsilon":01}`,              // leading zero: error
	`{"epsilon":.5}`,              // bare fraction: error
	`{"epsilon":5.}`,              // trailing dot: error
	`{"epsilon":+1}`,              // leading plus: error
	`{"epsilon":"1"}`,             // string into float: error
	`{"monotonic":1}`,             // number into bool: error
	`{"answers":{"0":1}}`,         // object into slice: error
	`{"unknown_field":1}`,         // unknown field: error
	`{"tenant":"a",}`,             // trailing comma: error
	`{"tenant":"a"`,               // truncated: error
	``,                            // empty body: error (EOF)
	`null`,                        // bare null: zero request, accepted
	`nullx`,                       // trailing garbage after null: error
	`{"k":1} {"k":2}`,             // second value: error
	`{"k":1}]`,                    // the json.Decoder.More ']' quirk: accepted
	`{"k":1}}`,                    // More reports false for '}' too: accepted
	`{"k":1}]garbage`,             // More peeks one byte: accepted
	`{"k":1}x`,                    // trailing garbage: error
	`42`,                          // number at top level: error
	`[{"k":1}]`,                   // array at top level: error
	`{"tenant":"\q"}`,             // invalid escape: error
	`{"tenant":"` + "\x01" + `"}`, // control char: error
	`{"tenant":"\uD800\uD800"}`,   // two high surrogates → two U+FFFD
	`{"tenant":"\uZZZZ"}`,         // invalid hex escape: error
	"\t\r\n {\"k\" \t:\n 1 } \r",  // whitespace everywhere
}

// TestDecodeRequestAgreement runs the corpus through every mechanism with
// and without a scratch, comparing against the stdlib strict decoder.
func TestDecodeRequestAgreement(t *testing.T) {
	reg := DefaultRegistry()
	for _, mech := range reg.Mechanisms() {
		scr := NewScratch()
		for _, body := range codecBodies {
			for _, useScratch := range []bool{false, true} {
				var s *Scratch
				if useScratch {
					s = scr
				}
				got, ok, gotErr := DecodeRequest(mech, []byte(body), s)
				if !ok {
					t.Fatalf("%s: no codec for a built-in mechanism", mech.Name())
				}
				want := mech.NewRequest()
				wantErr := stdlibStrictDecode([]byte(body), want)
				if (gotErr == nil) != (wantErr == nil) {
					t.Errorf("%s (scratch=%v) %q: codec err %v, stdlib err %v", mech.Name(), useScratch, body, gotErr, wantErr)
					continue
				}
				if gotErr == nil && !reflect.DeepEqual(got, want) {
					t.Errorf("%s (scratch=%v) %q:\n codec:  %#v\n stdlib: %#v", mech.Name(), useScratch, body, got, want)
				}
			}
		}
	}
}

// TestDecodeRequestScratchStrings pins that retained strings (tenant,
// dataset) do not alias the scratch: decoding a second request must not
// mutate the first request's strings.
func TestDecodeRequestScratchStrings(t *testing.T) {
	reg := DefaultRegistry()
	mech, err := reg.Get("topk")
	if err != nil {
		t.Fatal(err)
	}
	scr := NewScratch()
	first, _, err := DecodeRequest(mech, []byte(`{"tenant":"alpha","dataset":"left"}`), scr)
	if err != nil {
		t.Fatal(err)
	}
	tenant, ds := first.Base().Tenant, first.Base().Dataset
	if _, _, err := DecodeRequest(mech, []byte(`{"tenant":"omega","dataset":"right"}`), scr); err != nil {
		t.Fatal(err)
	}
	if tenant != "alpha" || ds != "left" {
		t.Fatalf("decoded strings alias the scratch: tenant=%q dataset=%q", tenant, ds)
	}
}
