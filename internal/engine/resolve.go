package engine

// Server-side query resolution. A request may, instead of carrying inline
// answers, name a catalogued dataset and a counting-query spec; the executing
// layer resolves the spec into answers exactly once, between decoding and
// validation (decode → resolve → validate → charge → execute), through a
// Resolver it injects. The engine defines only the contract — the serving
// layer backs the Resolver with its dataset store — so mechanisms, the batch
// executor and the CLIs all gain dataset-backed queries without knowing where
// the data lives.

import (
	"errors"
	"fmt"
	"math"
)

// Query spec kinds accepted in Common.Queries.
const (
	// QueryAllItems asks for the count of every item in the dataset's
	// universe — one sensitivity-1 monotonic counting query per item, the
	// exact workload of the paper's Section 7.
	QueryAllItems = "all_items"
	// QueryItemCount asks for the counts of an explicit item list.
	QueryItemCount = "item_count"
	// QueryFilter counts, per item in the universe, the records matching a
	// record predicate (item-in-set, record-length range) that the item
	// appears in — a group-by-item over the filtered records.
	QueryFilter = "filter"
	// QueryThreshold keeps the counts of its one operand spec that fall in
	// [min_count, max_count] and zeroes the rest.
	QueryThreshold = "threshold"
	// QueryUnion is the elementwise max over two or more operand specs.
	QueryUnion = "union"
	// QueryIntersect is the elementwise min over two or more operand specs.
	QueryIntersect = "intersect"
	// QueryMinus keeps the first operand's counts where the second operand's
	// count is zero — set difference on the item support.
	QueryMinus = "minus"
	// QueryJoin keeps the operand's counts only for items supported (count
	// > 0) by a spec evaluated over another catalogued dataset — a join on
	// the shared item universe.
	QueryJoin = "join"
)

// Caps on the composite spec algebra, enforced by Validate before any plan
// is compiled so untrusted tenants cannot submit unbounded trees. Violations
// surface as the structured 400 "bad_query_spec".
const (
	// MaxSpecDepth bounds the nesting depth of a spec tree (the root is
	// depth 1; a join's "on" spec counts like an "of" operand).
	MaxSpecDepth = 8
	// MaxSpecNodes bounds the total number of spec nodes in one tree.
	MaxSpecNodes = 64
	// MaxSpecItems bounds one filter predicate's contains list.
	MaxSpecItems = 1 << 16
)

// ErrBadQuerySpec reports a malformed dataset/query combination: an unknown
// kind, a missing or superfluous item list, a query spec without a dataset
// (or vice versa), or inline answers alongside a dataset. Callers map it to
// the "bad_query_spec" API error code.
var ErrBadQuerySpec = errors.New("engine: bad query spec")

// RecordPredicate is a per-record filter: a record matches when it contains
// every item in Contains and its length lies in [MinLen, MaxLen]. A zero
// MaxLen means "no upper bound", so the zero bounds are never restrictive.
type RecordPredicate struct {
	// Contains lists item ids the record must all contain (AND semantics).
	Contains []int32 `json:"contains,omitempty"`
	// MinLen is the minimum record length (number of items), inclusive.
	MinLen int `json:"min_len,omitempty"`
	// MaxLen is the maximum record length, inclusive; 0 means unbounded.
	MaxLen int `json:"max_len,omitempty"`
}

// QuerySpec names a counting-query workload over a catalogued dataset, in
// place of inline answers. The two leaf kinds ("all_items", "item_count")
// resolve straight from the dataset's cached count vector; the composite
// kinds form a small algebra — filters, thresholds, set ops, cross-dataset
// joins — that the query planner compiles into vectorized passes over the
// columnar arenas. Composite specs always resolve to the full item-universe
// count vector (group-by item).
type QuerySpec struct {
	// Kind selects the workload (one of the Query* constants).
	Kind string `json:"kind"`
	// Items lists the queried item ids for kind "item_count"; it must be
	// empty for every other kind.
	Items []int32 `json:"items,omitempty"`
	// Where is the record predicate for kind "filter".
	Where *RecordPredicate `json:"where,omitempty"`
	// MinCount and MaxCount bound the kept counts for kind "threshold";
	// MaxCount 0 means unbounded above.
	MinCount float64 `json:"min_count,omitempty"`
	MaxCount float64 `json:"max_count,omitempty"`
	// Of holds the operand specs for the composite kinds: exactly one for
	// "threshold" and "join", exactly two for "minus", two or more for
	// "union" and "intersect".
	Of []*QuerySpec `json:"of,omitempty"`
	// Dataset names the other catalogued dataset for kind "join".
	Dataset string `json:"dataset,omitempty"`
	// On is the spec evaluated over the join's other dataset; nil means
	// "all_items" (join on the other dataset's full support).
	On *QuerySpec `json:"on,omitempty"`
}

// Composite reports whether the spec uses the composable algebra — anything
// beyond the two legacy leaf kinds — and therefore needs the query planner
// rather than a direct count-vector lookup.
func (q *QuerySpec) Composite() bool {
	return q.Kind != QueryAllItems && q.Kind != QueryItemCount
}

// Monotone reports whether the spec lies in the monotone fragment of the
// algebra: leaf counts, filters, unions and intersections are monotone
// 1-Lipschitz counting queries (adding a record never decreases any answer
// and moves each by at most one), so resolved requests get the halved noise
// scale. Threshold, minus and join can decrease answers when a record is
// added, so they are conservatively non-monotone.
func (q *QuerySpec) Monotone() bool {
	switch q.Kind {
	case QueryAllItems, QueryItemCount, QueryFilter:
		return true
	case QueryUnion, QueryIntersect:
		for _, op := range q.Of {
			if op == nil || !op.Monotone() {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// Validate rejects malformed specs with ErrBadQuerySpec, walking the whole
// tree with the MaxSpecDepth/MaxSpecNodes caps so a pathological spec is
// rejected before any plan is compiled.
func (q *QuerySpec) Validate() error {
	nodes := 0
	return q.validate(1, &nodes)
}

func (q *QuerySpec) validate(depth int, nodes *int) error {
	if depth > MaxSpecDepth {
		return fmt.Errorf("%w: spec nesting exceeds the depth cap of %d", ErrBadQuerySpec, MaxSpecDepth)
	}
	*nodes++
	if *nodes > MaxSpecNodes {
		return fmt.Errorf("%w: spec tree exceeds the size cap of %d nodes", ErrBadQuerySpec, MaxSpecNodes)
	}
	switch q.Kind {
	case QueryAllItems:
		if len(q.Items) != 0 {
			return fmt.Errorf("%w: items must be empty for kind %q", ErrBadQuerySpec, QueryAllItems)
		}
		return q.onlyFields(fieldItems)
	case QueryItemCount:
		if len(q.Items) == 0 {
			return fmt.Errorf("%w: kind %q needs a non-empty items list", ErrBadQuerySpec, QueryItemCount)
		}
		return q.onlyFields(fieldItems)
	case QueryFilter:
		if err := q.onlyFields(fieldWhere); err != nil {
			return err
		}
		w := q.Where
		if w == nil {
			return fmt.Errorf("%w: kind %q needs a where predicate", ErrBadQuerySpec, QueryFilter)
		}
		if len(w.Contains) > MaxSpecItems {
			return fmt.Errorf("%w: where.contains exceeds the cap of %d items", ErrBadQuerySpec, MaxSpecItems)
		}
		if w.MinLen < 0 || w.MaxLen < 0 {
			return fmt.Errorf("%w: record-length bounds must be non-negative", ErrBadQuerySpec)
		}
		if len(w.Contains) == 0 && w.MinLen == 0 && w.MaxLen == 0 {
			return fmt.Errorf("%w: a where predicate needs contains, min_len or max_len", ErrBadQuerySpec)
		}
		return nil
	case QueryThreshold:
		if err := q.onlyFields(fieldOf | fieldCounts); err != nil {
			return err
		}
		if !(q.MinCount >= 0) || !(q.MaxCount >= 0) ||
			math.IsInf(q.MinCount, 1) || math.IsInf(q.MaxCount, 1) {
			return fmt.Errorf("%w: threshold bounds must be finite and non-negative", ErrBadQuerySpec)
		}
		if q.MinCount == 0 && q.MaxCount == 0 {
			return fmt.Errorf("%w: kind %q needs min_count or max_count", ErrBadQuerySpec, QueryThreshold)
		}
		return q.validateOperands(1, 1, depth, nodes)
	case QueryUnion, QueryIntersect:
		if err := q.onlyFields(fieldOf); err != nil {
			return err
		}
		return q.validateOperands(2, MaxSpecNodes, depth, nodes)
	case QueryMinus:
		if err := q.onlyFields(fieldOf); err != nil {
			return err
		}
		return q.validateOperands(2, 2, depth, nodes)
	case QueryJoin:
		if err := q.onlyFields(fieldOf | fieldJoin); err != nil {
			return err
		}
		if q.Dataset == "" {
			return fmt.Errorf("%w: kind %q needs the other dataset's name", ErrBadQuerySpec, QueryJoin)
		}
		if q.On != nil {
			if err := q.On.validate(depth+1, nodes); err != nil {
				return err
			}
		}
		return q.validateOperands(1, 1, depth, nodes)
	default:
		return fmt.Errorf("%w: unknown kind %q (valid: %q, %q, %q, %q, %q, %q, %q, %q)",
			ErrBadQuerySpec, q.Kind, QueryItemCount, QueryAllItems, QueryFilter,
			QueryThreshold, QueryUnion, QueryIntersect, QueryMinus, QueryJoin)
	}
}

// validateOperands checks the operand count for a composite kind and
// recurses into each operand.
func (q *QuerySpec) validateOperands(min, max, depth int, nodes *int) error {
	if len(q.Of) < min || len(q.Of) > max {
		if min == max {
			return fmt.Errorf("%w: kind %q needs exactly %d operand(s) in of, got %d", ErrBadQuerySpec, q.Kind, min, len(q.Of))
		}
		return fmt.Errorf("%w: kind %q needs at least %d operands in of, got %d", ErrBadQuerySpec, q.Kind, min, len(q.Of))
	}
	for i, op := range q.Of {
		if op == nil {
			return fmt.Errorf("%w: of[%d] must be a query spec object", ErrBadQuerySpec, i)
		}
		if err := op.validate(depth+1, nodes); err != nil {
			return err
		}
	}
	return nil
}

// Field groups for the per-kind "no superfluous fields" check.
const (
	fieldItems = 1 << iota
	fieldWhere
	fieldCounts
	fieldOf
	fieldJoin
)

// onlyFields rejects the spec when any field outside the allowed groups is
// set, so e.g. an "all_items" leaf carrying operands is caught early rather
// than silently ignored.
func (q *QuerySpec) onlyFields(allowed int) error {
	switch {
	case allowed&fieldItems == 0 && len(q.Items) != 0:
		return fmt.Errorf("%w: items is not valid for kind %q", ErrBadQuerySpec, q.Kind)
	case allowed&fieldWhere == 0 && q.Where != nil:
		return fmt.Errorf("%w: where is not valid for kind %q", ErrBadQuerySpec, q.Kind)
	case allowed&fieldCounts == 0 && (q.MinCount != 0 || q.MaxCount != 0):
		return fmt.Errorf("%w: min_count/max_count are not valid for kind %q", ErrBadQuerySpec, q.Kind)
	case allowed&fieldOf == 0 && len(q.Of) != 0:
		return fmt.Errorf("%w: of is not valid for kind %q", ErrBadQuerySpec, q.Kind)
	case allowed&fieldJoin == 0 && (q.Dataset != "" || q.On != nil):
		return fmt.Errorf("%w: dataset/on are not valid for kind %q", ErrBadQuerySpec, q.Kind)
	}
	return nil
}

// Resolver turns (dataset, spec) into query answers. The serving layer
// injects an implementation backed by its dataset catalog; monotonic reports
// whether the resolved queries form a monotonic list (true for counting
// queries), letting the mechanisms use the halved noise scale. The answers
// must be finite: validation does not re-check resolved vectors.
type Resolver interface {
	Resolve(dataset string, spec *QuerySpec) (answers []float64, monotonic bool, err error)
}

// ResolveRequest fills a dataset-backed request's answers in place, through
// r. It is a no-op for requests with inline answers, so the executing layer
// calls it unconditionally between decode and Validate. A request that names
// a dataset must carry a query spec and no inline answers; violations return
// ErrBadQuerySpec, and r's errors (e.g. an unknown dataset) pass through
// unwrapped so callers can classify them.
func ResolveRequest(req Request, r Resolver) error {
	c := req.Base()
	switch {
	case c.Dataset == "" && c.Queries == nil:
		return nil
	case c.Dataset == "":
		return fmt.Errorf("%w: a query spec needs a dataset name", ErrBadQuerySpec)
	case c.Queries == nil:
		return fmt.Errorf("%w: dataset %q given without a query spec", ErrBadQuerySpec, c.Dataset)
	case len(c.Answers) != 0:
		return fmt.Errorf("%w: request carries both inline answers and dataset %q", ErrBadQuerySpec, c.Dataset)
	case r == nil:
		return fmt.Errorf("%w: this caller serves no datasets", ErrBadQuerySpec)
	}
	if err := c.Queries.Validate(); err != nil {
		return err
	}
	answers, monotonic, err := r.Resolve(c.Dataset, c.Queries)
	if err != nil {
		return err
	}
	c.Answers = answers
	c.resolved = true
	// The resolver, not the client, knows whether the resolved queries are
	// monotone: a client flag must not buy the halved noise scale for a
	// threshold, minus or join spec.
	c.Monotonic = monotonic
	return nil
}
