package engine

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// fakeResolver resolves every dataset named "known" to fixed counts.
type fakeResolver struct {
	calls int
}

func (r *fakeResolver) Resolve(dataset string, spec *QuerySpec) ([]float64, bool, error) {
	r.calls++
	if dataset != "known" {
		return nil, false, fmt.Errorf("unknown dataset %q", dataset)
	}
	switch spec.Kind {
	case QueryAllItems:
		return []float64{5, 4, 3, 2, 1}, true, nil
	case QueryItemCount:
		out := make([]float64, len(spec.Items))
		for i, it := range spec.Items {
			out[i] = float64(it) * 10
		}
		return out, true, nil
	case QueryThreshold:
		return []float64{5, 4, 3, 0, 0}, false, nil
	default:
		return nil, false, fmt.Errorf("%w: kind %q", ErrBadQuerySpec, spec.Kind)
	}
}

func TestResolveRequestInlinePassthrough(t *testing.T) {
	req := &TopKRequest{Common: Common{Tenant: "t", Epsilon: 1, Answers: []float64{1, 2, 3}}, K: 1}
	// Inline requests must not need a resolver at all (the CLIs pass nil).
	if err := ResolveRequest(req, nil); err != nil {
		t.Fatalf("ResolveRequest: %v", err)
	}
	if !reflect.DeepEqual(req.Answers, []float64{1, 2, 3}) {
		t.Errorf("answers mutated: %v", req.Answers)
	}
}

func TestResolveRequestAllItems(t *testing.T) {
	r := &fakeResolver{}
	req := &TopKRequest{Common: Common{Tenant: "t", Epsilon: 1, Dataset: "known", Queries: &QuerySpec{Kind: QueryAllItems}}, K: 2}
	if err := ResolveRequest(req, r); err != nil {
		t.Fatalf("ResolveRequest: %v", err)
	}
	if !reflect.DeepEqual(req.Answers, []float64{5, 4, 3, 2, 1}) {
		t.Errorf("answers = %v", req.Answers)
	}
	if !req.Monotonic {
		t.Error("resolved counting queries should set monotonic")
	}
	if r.calls != 1 {
		t.Errorf("resolver calls = %d, want 1", r.calls)
	}
}

func TestResolveRequestItemCount(t *testing.T) {
	req := &SVTRequest{Common: Common{Tenant: "t", Epsilon: 1, Dataset: "known",
		Queries: &QuerySpec{Kind: QueryItemCount, Items: []int32{3, 1}}}, K: 1, Threshold: 5}
	if err := ResolveRequest(req, &fakeResolver{}); err != nil {
		t.Fatalf("ResolveRequest: %v", err)
	}
	if !reflect.DeepEqual(req.Answers, []float64{30, 10}) {
		t.Errorf("answers = %v", req.Answers)
	}
}

func TestResolveRequestErrors(t *testing.T) {
	r := &fakeResolver{}
	cases := []struct {
		name string
		c    Common
		res  Resolver
	}{
		{"queries without dataset", Common{Queries: &QuerySpec{Kind: QueryAllItems}}, r},
		{"dataset without queries", Common{Dataset: "known"}, r},
		{"inline answers plus dataset", Common{Dataset: "known", Queries: &QuerySpec{Kind: QueryAllItems}, Answers: []float64{1}}, r},
		{"nil resolver", Common{Dataset: "known", Queries: &QuerySpec{Kind: QueryAllItems}}, nil},
		{"unknown kind", Common{Dataset: "known", Queries: &QuerySpec{Kind: "nope"}}, r},
		{"all_items with items", Common{Dataset: "known", Queries: &QuerySpec{Kind: QueryAllItems, Items: []int32{1}}}, r},
		{"item_count without items", Common{Dataset: "known", Queries: &QuerySpec{Kind: QueryItemCount}}, r},
	}
	for _, tc := range cases {
		req := &MaxRequest{Common: tc.c}
		err := ResolveRequest(req, tc.res)
		if !errors.Is(err, ErrBadQuerySpec) {
			t.Errorf("%s: err = %v, want ErrBadQuerySpec", tc.name, err)
		}
	}
	// Resolver errors pass through unwrapped for the caller to classify.
	req := &MaxRequest{Common: Common{Dataset: "nope", Queries: &QuerySpec{Kind: QueryAllItems}}}
	if err := ResolveRequest(req, r); err == nil || errors.Is(err, ErrBadQuerySpec) {
		t.Errorf("resolver error = %v, want a non-spec error", err)
	}
}

func TestResolveRequestKeepsExplicitMonotonic(t *testing.T) {
	// The resolver's monotone flag decides, whatever the client sent: an
	// explicit flag must not buy the halved noise scale for a non-monotone
	// spec, and its absence must not withhold it from a monotone one.
	monotone := &QuerySpec{Kind: QueryAllItems}
	nonMonotone := &QuerySpec{Kind: QueryThreshold, MinCount: 3, Of: []*QuerySpec{{Kind: QueryAllItems}}}
	for _, tc := range []struct {
		client bool
		spec   *QuerySpec
		want   bool
	}{
		{false, monotone, true},
		{true, monotone, true},
		{false, nonMonotone, false},
		{true, nonMonotone, false},
	} {
		req := &MaxRequest{Common: Common{Monotonic: tc.client, Dataset: "known", Queries: tc.spec}}
		if err := ResolveRequest(req, &fakeResolver{}); err != nil {
			t.Fatalf("client %v, kind %q: %v", tc.client, tc.spec.Kind, err)
		}
		if req.Monotonic != tc.want {
			t.Errorf("client %v, kind %q: monotonic = %v, want the resolver's %v",
				tc.client, tc.spec.Kind, req.Monotonic, tc.want)
		}
	}
}
