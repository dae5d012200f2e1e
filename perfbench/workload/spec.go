package workload

import "fmt"

// Spec is the JSON query spec the workloads send, limited to the monotone
// kinds the benchmark uses. It never holds minus or join: their sensitivity
// is unbounded, and a server that starts rejecting them must not turn the
// benchmark's runs into failures.
type Spec struct {
	Kind     string  `json:"kind"`
	Items    []int32 `json:"items,omitempty"`
	Where    *Where  `json:"where,omitempty"`
	MinCount float64 `json:"min_count,omitempty"`
	MaxCount float64 `json:"max_count,omitempty"`
	Of       []*Spec `json:"of,omitempty"`
}

// Where is a filter spec's record predicate.
type Where struct {
	Contains []int32 `json:"contains,omitempty"`
	MinLen   int     `json:"min_len,omitempty"`
	MaxLen   int     `json:"max_len,omitempty"`
}

// Spec kinds.
const (
	KindAllItems  = "all_items"
	KindItemCount = "item_count"
	KindFilter    = "filter"
	KindThreshold = "threshold"
	KindUnion     = "union"
	KindIntersect = "intersect"
)

// Composite reports whether the server resolves s through its query
// planner rather than straight from the cached count vector.
func (s *Spec) Composite() bool { return s.Kind != KindAllItems && s.Kind != KindItemCount }

// Answers is the naive reference for a resolved request: the exact true
// answers the server must compute for spec over records, by a full scan per
// filter node and no caching or skipping.
func Answers(records [][]int32, spec *Spec) ([]float64, error) {
	universe := Universe(records)
	if spec.Kind == KindItemCount {
		counts := Counts(records, universe)
		out := make([]float64, len(spec.Items))
		for i, it := range spec.Items {
			if int(it) < universe {
				out[i] = counts[it]
			}
		}
		return out, nil
	}
	return eval(records, universe, spec)
}

func eval(records [][]int32, universe int, s *Spec) ([]float64, error) {
	switch s.Kind {
	case KindAllItems:
		return Counts(records, universe), nil
	case KindFilter:
		return filterCounts(records, universe, s.Where.Contains, s.Where.MinLen, s.Where.MaxLen), nil
	case KindThreshold:
		v, err := eval(records, universe, s.Of[0])
		if err != nil {
			return nil, err
		}
		for i, x := range v {
			if x < s.MinCount || (s.MaxCount > 0 && x > s.MaxCount) {
				v[i] = 0
			}
		}
		return v, nil
	case KindUnion, KindIntersect:
		var out []float64
		for _, op := range s.Of {
			v, err := eval(records, universe, op)
			if err != nil {
				return nil, err
			}
			if out == nil {
				out = v
				continue
			}
			for i, x := range v {
				if (s.Kind == KindUnion && x > out[i]) || (s.Kind == KindIntersect && x < out[i]) {
					out[i] = x
				}
			}
		}
		return out, nil
	default:
		return nil, fmt.Errorf("workload: reference has no evaluator for kind %q", s.Kind)
	}
}
