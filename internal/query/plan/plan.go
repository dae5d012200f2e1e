// Package plan is the query compiler for the composable QuerySpec algebra:
// it normalizes a spec tree into a canonical form, compiles it with a
// greedy, statistics-free planner into a DAG of vectorized passes over the
// columnar arenas, and materializes the resulting full-universe count
// vector.
//
// The planner keeps no table statistics on purpose (the "when greedy beats
// optimal" result: shape-only cost ranks cannot go stale and cost nothing
// to maintain). Each node gets a cost rank from its shape alone — cached
// leaves are free, a filter is a record scan, composites sum their
// operands — and set operations evaluate their operands cheapest-first so
// an intersection can short-circuit to zero before ever paying for a scan.
//
// Two layers make repeated and selective queries cheap:
//
//   - Canonicalization: associative operators are flattened, operands
//     sorted and deduplicated, zero-result subtrees propagated out. Two
//     semantically equal specs (union order, duplicate operands, empty
//     ranges) normalize to one canonical string, which keys the compiled-plan
//     cache of the dataset's current data generation — a repeated spec costs
//     one lock-free map lookup, with the materialized vector reused verbatim.
//     Each generation owns its cache and serves only vectors stamped with its
//     own record count, so cached answers never go stale; join plans, which
//     read a second dataset, are not cached.
//
//   - Delta extension: an append carries the cached vectors into the next
//     generation under their old stamps. Datasets only grow, so a filter
//     vector stamped with M records is exact for the first M records; a
//     filter node (the root, or an operand whose spec was cached as a root)
//     copies it into the grown universe and scans only the records after M.
//
//   - Data skipping: filter nodes skip whole record blocks whose zone
//     sketch (per-block min/max record length) misses the length bounds.
//     A `contains` filter walks the dataset's exact item postings: in each
//     full block only the records on its rarest item's list, and none of a
//     block where an item's list is empty. An item's postings are built by
//     the first scan that names it, extended over blocks appends seal, and
//     shared by every generation. A length-only filter with no carried
//     vector reads the full blocks from the dataset's record-length count
//     table instead (the rows of its length range: per item, the records of
//     each length that hold it) and scans only the blocks after the table;
//     the table is built and extended the same way.
package plan

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"

	"github.com/freegap/freegap/internal/engine"
	"github.com/freegap/freegap/internal/store"
)

// Catalog resolves dataset names for cross-dataset joins; the server backs
// it with its dataset store.
type Catalog interface {
	Get(name string) (*store.Entry, error)
}

// Node kinds after normalization: the engine's spec kinds plus the
// zero-result node that rewrites propagate.
const kindZero = "zero"

// Shape-only cost ranks. The planner never consults data statistics; ranks
// order operands so cheap subtrees (cached leaves) evaluate before record
// scans, which is what enables the intersect/minus empty-support
// short-circuit.
const (
	costLeaf   = 1    // cached count-vector lookup
	costFilter = 1000 // record scan (bounded above by skipping, unknown here)
	costJoin   = 5    // the mask pass itself, on top of its operands
)

// node is one normalized spec-tree node. Nodes are immutable once built;
// canon is the canonical encoding of the whole subtree and doubles as the
// plan-cache key and the memoization key for DAG-shared subtrees.
type node struct {
	kind     string
	items    []int32 // item_count: sorted, deduplicated
	contains []int32 // filter: sorted, deduplicated
	minLen   int     // filter record-length bounds (maxLen 0 = unbounded)
	maxLen   int
	minCount float64 // threshold bounds (maxCount 0 = unbounded)
	maxCount float64
	dataset  string  // join: the other dataset's name
	on       *node   // join: the spec over the other dataset
	children []*node // operands, sorted by canon for canonical encoding
	order    []int   // greedy evaluation order over children (cost asc)

	canon string
	cost  int
	mono  bool
}

// normalize rewrites a validated spec into its canonical node form. It
// assumes spec passed engine validation; unknown kinds normalize to a node
// the evaluator rejects.
func normalize(q *engine.QuerySpec) *node {
	switch q.Kind {
	case engine.QueryAllItems:
		return &node{kind: engine.QueryAllItems, canon: "A", cost: costLeaf, mono: true}

	case engine.QueryItemCount:
		items := sortedDedup(q.Items)
		var sb strings.Builder
		sb.WriteString("I(")
		for i, it := range items {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(strconv.Itoa(int(it)))
		}
		sb.WriteByte(')')
		return &node{kind: engine.QueryItemCount, items: items, canon: sb.String(), cost: costLeaf, mono: true}

	case engine.QueryFilter:
		w := q.Where
		if w.MaxLen > 0 && w.MinLen > w.MaxLen {
			return zeroNode() // empty length range: no record can match
		}
		contains := sortedDedup(w.Contains)
		var sb strings.Builder
		sb.WriteString("F(")
		for i, it := range contains {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(strconv.Itoa(int(it)))
		}
		fmt.Fprintf(&sb, ";%d;%d)", w.MinLen, w.MaxLen)
		return &node{
			kind: engine.QueryFilter, contains: contains,
			minLen: w.MinLen, maxLen: w.MaxLen,
			canon: sb.String(), cost: costFilter, mono: true,
		}

	case engine.QueryThreshold:
		child := normalize(q.Of[0])
		if child.kind == kindZero {
			return zeroNode() // thresholding nothing is nothing
		}
		if q.MaxCount > 0 && q.MinCount > q.MaxCount {
			return zeroNode() // empty count range
		}
		n := &node{
			kind: engine.QueryThreshold, minCount: q.MinCount, maxCount: q.MaxCount,
			children: []*node{child}, order: []int{0},
			cost: child.cost + 1,
		}
		n.canon = "T(" + formatCount(q.MinCount) + ";" + formatCount(q.MaxCount) + ";" + child.canon + ")"
		return n

	case engine.QueryUnion, engine.QueryIntersect:
		return normalizeSetOp(q)

	case engine.QueryMinus:
		a, b := normalize(q.Of[0]), normalize(q.Of[1])
		switch {
		case a.kind == kindZero:
			return zeroNode() // nothing minus anything is nothing
		case b.kind == kindZero:
			return a // minus nothing is a no-op
		case a.canon == b.canon:
			return zeroNode() // x minus x is nothing
		}
		return &node{
			kind: engine.QueryMinus, children: []*node{a, b}, order: []int{0, 1},
			canon: "M(" + a.canon + ";" + b.canon + ")",
			cost:  a.cost + b.cost + 1,
		}

	case engine.QueryJoin:
		left := normalize(q.Of[0])
		if left.kind == kindZero {
			return zeroNode()
		}
		var on *node
		if q.On != nil {
			on = normalize(q.On)
		} else {
			on = &node{kind: engine.QueryAllItems, canon: "A", cost: costLeaf, mono: true}
		}
		if on.kind == kindZero {
			return zeroNode() // joining on an empty support masks everything
		}
		return &node{
			kind: engine.QueryJoin, dataset: q.Dataset, on: on,
			children: []*node{left}, order: []int{0},
			canon: "J(" + q.Dataset + ";" + on.canon + ";" + left.canon + ")",
			cost:  left.cost + on.cost + costJoin,
		}

	default:
		// Unreachable for validated specs; evaluated as an error.
		return &node{kind: q.Kind, canon: "?(" + q.Kind + ")"}
	}
}

// normalizeSetOp flattens an associative union/intersect: same-kind
// children are inlined, zero operands rewritten away, duplicates (by canon)
// dropped, and the survivors sorted by canon so operand order never changes
// the canonical form. The greedy evaluation order is separate: operands
// sorted cheapest-first, so intersect can short-circuit on an empty cheap
// support before paying for an expensive scan.
func normalizeSetOp(q *engine.QuerySpec) *node {
	kind := q.Kind
	var flat []*node
	seen := make(map[string]bool, len(q.Of))
	var add func(c *node)
	add = func(c *node) {
		if c.kind == kind {
			for _, cc := range c.children {
				add(cc)
			}
			return
		}
		if seen[c.canon] {
			return
		}
		seen[c.canon] = true
		flat = append(flat, c)
	}
	for _, op := range q.Of {
		add(normalize(op))
	}

	if kind == engine.QueryIntersect {
		for _, c := range flat {
			if c.kind == kindZero {
				return zeroNode() // intersecting with nothing is nothing
			}
		}
	} else {
		kept := flat[:0]
		for _, c := range flat {
			if c.kind != kindZero {
				kept = append(kept, c) // union with nothing is a no-op
			}
		}
		flat = kept
	}
	switch len(flat) {
	case 0:
		return zeroNode()
	case 1:
		return flat[0]
	}
	sort.Slice(flat, func(i, j int) bool { return flat[i].canon < flat[j].canon })

	n := &node{kind: kind, children: flat}
	mono, cost := true, 1
	var sb strings.Builder
	if kind == engine.QueryUnion {
		sb.WriteString("U(")
	} else {
		sb.WriteString("N(")
	}
	for i, c := range flat {
		if i > 0 {
			sb.WriteByte(';')
		}
		sb.WriteString(c.canon)
		mono = mono && c.mono
		cost += c.cost
	}
	sb.WriteByte(')')
	n.canon, n.cost, n.mono = sb.String(), cost, mono

	n.order = make([]int, len(flat))
	for i := range n.order {
		n.order[i] = i
	}
	sort.SliceStable(n.order, func(i, j int) bool {
		return flat[n.order[i]].cost < flat[n.order[j]].cost
	})
	return n
}

func zeroNode() *node {
	return &node{kind: kindZero, canon: "0", cost: 0, mono: true}
}

// sortedDedup returns a sorted, duplicate-free copy of items.
func sortedDedup(items []int32) []int32 {
	out := make([]int32, len(items))
	copy(out, items)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	n := 0
	for i, v := range out {
		if i == 0 || v != out[n-1] {
			out[n] = v
			n++
		}
	}
	return out[:n]
}

// formatCount renders a threshold bound exactly (shortest round-trip form)
// so distinct bounds never collide in the canonical string.
func formatCount(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// Canonical returns the canonical encoding of spec — the plan-cache key.
// Two specs share a canonical form iff the normalizer can prove them
// semantically equal (operand order, duplicates, zero subtrees).
func Canonical(spec *engine.QuerySpec) string {
	return normalize(spec).canon
}

// Hash returns the 64-bit FNV-1a hash of spec's canonical form.
func Hash(spec *engine.QuerySpec) uint64 {
	h := fnv.New64a()
	h.Write([]byte(Canonical(spec)))
	return h.Sum64()
}
