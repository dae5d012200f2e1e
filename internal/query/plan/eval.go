package plan

// Plan evaluation: vectorized passes over the columnar arenas. Every node
// evaluates to a full-universe count vector for the entry it runs against
// (group-by item); leaves read the arena's cached column, filters scan
// record blocks under zone-sketch skipping, and composites fold their
// operands elementwise in greedy (cheapest-first) order. Subtrees shared
// between branches evaluate once — the memo keyed by (dataset, canon) turns
// the tree into a DAG. Returned child vectors are never mutated: every
// operator folds into its own freshly allocated output, so a leaf can hand
// out the arena's shared column safely.

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/freegap/freegap/internal/engine"
	"github.com/freegap/freegap/internal/store"
)

// DefaultMinParallelRecords is the surviving-record threshold below which a
// filter scan stays serial. Fanning out costs a few goroutine handoffs plus
// one partial count vector and one stamp array per worker, which dominates
// until a scan has at least a few zone blocks of real work; four blocks of
// post-skip records is where the fan-out reliably pays for itself.
const DefaultMinParallelRecords = 4 * store.DefaultZoneBlock

// Options tunes one resolution.
type Options struct {
	// NoSkip disables zone-sketch data skipping; every filter scans every
	// record. Results are identical either way — skipping only elides blocks
	// proven unmatching.
	NoSkip bool
	// NoCache bypasses the compiled-plan cache (both lookup and fill).
	NoCache bool
	// Workers caps the per-scan worker fan-out of block-parallel filter
	// scans: 0 means GOMAXPROCS, 1 forces serial scans. Results are
	// byte-identical at every setting — workers own disjoint runs of zone
	// blocks and their whole-number partial counts merge exactly.
	Workers int
	// MinParallelRecords is the surviving-record threshold below which a
	// filter scan stays serial: 0 means DefaultMinParallelRecords, negative
	// forces the parallel path even on tiny datasets (a differential-test
	// knob, not a serving configuration).
	MinParallelRecords int
}

// Stats aggregates one resolution's scan work across all datasets touched.
type Stats struct {
	// FilterScans is the number of filter nodes that scanned records.
	FilterScans int
	// RecordsScanned counts records actually visited by filter scans.
	RecordsScanned int
	// RecordsSkipped counts records in blocks the zone sketches skipped.
	RecordsSkipped int
	// BlocksSkipped counts whole zone blocks skipped.
	BlocksSkipped int
	// ParallelWorkers is the widest worker fan-out any filter scan of the
	// resolution ran with (1 = every scan was serial, 0 = no scan ran).
	ParallelWorkers int
}

// Result is one resolved composite query.
type Result struct {
	// Answers is the materialized full-universe count vector (read-only; it
	// may be shared with the plan cache or the arena).
	Answers []float64
	// Monotonic reports whether the spec lies in the monotone fragment of
	// the algebra (see engine.QuerySpec.Monotone).
	Monotonic bool
	// CacheHit reports whether the vector came from the compiled-plan cache.
	CacheHit bool
	// Stats is the scan work performed (zero on a cache hit).
	Stats Stats
	// Explain describes the compiled plan.
	Explain *Explain
	// Compile is the time spent normalizing and canonicalizing the spec.
	Compile time.Duration
}

// Explain is the ?explain=1 payload: the compiled plan and what evaluating
// it cost.
type Explain struct {
	Dataset        string `json:"dataset"`
	Canonical      string `json:"canonical"`
	Hash           string `json:"hash"`
	Cached         bool   `json:"cached"`
	Monotonic      bool   `json:"monotonic"`
	Answers        int    `json:"answers"`
	SketchBlocks   int    `json:"sketch_blocks"`
	RecordsTotal   int    `json:"records_total"`
	RecordsScanned int    `json:"records_scanned"`
	RecordsSkipped int    `json:"records_skipped"`
	BlocksSkipped  int    `json:"blocks_skipped"`
	// ParallelWorkers is the widest block-parallel fan-out any filter scan
	// of the plan ran with (1 = serial, 0 = nothing scanned).
	ParallelWorkers int          `json:"parallel_workers"`
	CompileMicros   float64      `json:"compile_us"`
	Plan            *NodeExplain `json:"plan"`
}

// NodeExplain is one plan node in the explain tree.
type NodeExplain struct {
	// Op is the node kind ("filter", "union", "zero", ...).
	Op string `json:"op"`
	// Detail is a compact human-readable summary of the node's parameters.
	Detail string `json:"detail,omitempty"`
	// CostRank is the planner's statistics-free cost rank for the subtree.
	CostRank int `json:"cost_rank"`
	// EvalOrder is the greedy child evaluation order (indices into
	// Children), present when it differs from canonical order.
	EvalOrder []int `json:"eval_order,omitempty"`
	// On is the join's spec over the other dataset.
	On *NodeExplain `json:"on,omitempty"`
	// Children are the operand subplans in canonical order.
	Children []*NodeExplain `json:"children,omitempty"`
}

// Resolve compiles spec against e and materializes its count vector: a
// cache hit returns the stored vector untouched (count_scans unchanged), a
// miss evaluates the plan and fills the cache. cat serves cross-dataset
// joins and may be nil for join-free specs. The spec must already have
// passed engine validation.
func Resolve(cat Catalog, e *store.Entry, spec *engine.QuerySpec, opts Options) (*Result, error) {
	start := time.Now()
	n := normalize(spec)
	compile := time.Since(start)

	if !opts.NoCache {
		if pe, ok := e.Plans().Get(n.canon); ok {
			e.NoteResolution()
			ex := &Explain{Cached: true, CompileMicros: micros(compile)}
			if stored, ok := pe.Explain.(*Explain); ok && stored != nil {
				*ex = *stored // replay the miss-time plan and scan stats
				ex.Cached, ex.CompileMicros = true, micros(compile)
			}
			return &Result{
				Answers: pe.Answers, Monotonic: pe.Monotonic,
				CacheHit: true, Explain: ex, Compile: compile,
			}, nil
		}
	}

	ctx := &evalCtx{cat: cat, opts: opts, memo: make(map[string][]float64)}
	answers, err := ctx.eval(e, n)
	if err != nil {
		return nil, err
	}
	e.NoteResolution()

	v := ctx.view(e)
	ex := &Explain{
		Dataset:         e.Name(),
		Canonical:       n.canon,
		Hash:            fmt.Sprintf("%016x", hashString(n.canon)),
		Monotonic:       n.mono,
		Answers:         len(answers),
		SketchBlocks:    v.Arena().Zones().NumBlocks(),
		RecordsTotal:    v.Dataset().NumRecords(),
		RecordsScanned:  ctx.stats.RecordsScanned,
		RecordsSkipped:  ctx.stats.RecordsSkipped,
		BlocksSkipped:   ctx.stats.BlocksSkipped,
		ParallelWorkers: ctx.stats.ParallelWorkers,
		CompileMicros:   micros(compile),
		Plan:            explainNode(n),
	}
	if !opts.NoCache {
		e.Plans().Put(n.canon, &store.PlanEntry{Answers: answers, Monotonic: n.mono, Explain: ex})
	}
	return &Result{
		Answers: answers, Monotonic: n.mono,
		Stats: ctx.stats, Explain: ex, Compile: compile,
	}, nil
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// evalCtx carries one resolution's shared state.
type evalCtx struct {
	cat   Catalog
	opts  Options
	stats Stats
	// memo shares evaluated subtrees by (dataset, canon): the DAG edge.
	memo map[string][]float64
	// views pins one data generation per entry for the whole resolution, so
	// a concurrent append cannot make two reads of the same dataset disagree
	// (or pair a new dataset with an old arena) mid-plan.
	views map[*store.Entry]store.View
	// stamps backs the per-record distinct-item dedup in filter scans,
	// reused across filter nodes of one resolution; stamp is the running
	// generation counter that keeps scans from seeing each other's marks.
	stamps []int32
	stamp  int32
}

// view returns the resolution's pinned data generation for e, taking the
// snapshot on first use.
func (c *evalCtx) view(e *store.Entry) store.View {
	if c.views == nil {
		c.views = make(map[*store.Entry]store.View)
	}
	v, ok := c.views[e]
	if !ok {
		v = e.View()
		c.views[e] = v
	}
	return v
}

// eval returns n's count vector over e's universe, memoized.
func (c *evalCtx) eval(e *store.Entry, n *node) ([]float64, error) {
	key := e.Name() + "\x00" + n.canon
	if v, ok := c.memo[key]; ok {
		return v, nil
	}
	v, err := c.evalNode(e, n)
	if err != nil {
		return nil, err
	}
	c.memo[key] = v
	return v, nil
}

func (c *evalCtx) evalNode(e *store.Entry, n *node) ([]float64, error) {
	arena := c.view(e).Arena()
	universe := len(arena.Counts())
	switch n.kind {
	case kindZero:
		return make([]float64, universe), nil

	case engine.QueryAllItems:
		return arena.Counts(), nil

	case engine.QueryItemCount:
		// As an algebra operand, item_count is the universe vector masked to
		// the listed items (the legacy root-level projection is served by
		// the resolver's fast path, not here).
		out := make([]float64, universe)
		counts := arena.Counts()
		for _, it := range n.items {
			if arena.Has(it) {
				out[it] = counts[it]
			}
		}
		return out, nil

	case engine.QueryFilter:
		return c.filterScan(e, n), nil

	case engine.QueryThreshold:
		child, err := c.eval(e, n.children[0])
		if err != nil {
			return nil, err
		}
		out := make([]float64, universe)
		for i, v := range child {
			if v >= n.minCount && (n.maxCount == 0 || v <= n.maxCount) {
				out[i] = v
			}
		}
		return out, nil

	case engine.QueryUnion:
		var out []float64
		for _, idx := range n.order {
			v, err := c.eval(e, n.children[idx])
			if err != nil {
				return nil, err
			}
			if out == nil {
				out = append(make([]float64, 0, len(v)), v...)
				continue
			}
			for i, x := range v {
				if x > out[i] {
					out[i] = x
				}
			}
		}
		return out, nil

	case engine.QueryIntersect:
		var out []float64
		for _, idx := range n.order {
			v, err := c.eval(e, n.children[idx])
			if err != nil {
				return nil, err
			}
			if out == nil {
				out = append(make([]float64, 0, len(v)), v...)
			} else {
				for i, x := range v {
					if x < out[i] {
						out[i] = x
					}
				}
			}
			// Greedy short-circuit: an empty support zeroes the whole
			// intersection, so the remaining (costlier) operands never run.
			if emptySupport(out) {
				return out, nil
			}
		}
		return out, nil

	case engine.QueryMinus:
		a, err := c.eval(e, n.children[0])
		if err != nil {
			return nil, err
		}
		if emptySupport(a) {
			return make([]float64, universe), nil
		}
		b, err := c.eval(e, n.children[1])
		if err != nil {
			return nil, err
		}
		out := make([]float64, universe)
		for i, x := range a {
			if b[i] == 0 {
				out[i] = x
			}
		}
		return out, nil

	case engine.QueryJoin:
		left, err := c.eval(e, n.children[0])
		if err != nil {
			return nil, err
		}
		if c.cat == nil {
			return nil, fmt.Errorf("%w: joins need a dataset catalog", engine.ErrBadQuerySpec)
		}
		other, err := c.cat.Get(n.dataset)
		if err != nil {
			return nil, err
		}
		onV, err := c.eval(other, n.on)
		if err != nil {
			return nil, err
		}
		out := make([]float64, universe)
		for i, x := range left {
			if x != 0 && i < len(onV) && onV[i] != 0 {
				out[i] = x
			}
		}
		return out, nil

	default:
		return nil, fmt.Errorf("%w: unknown kind %q", engine.ErrBadQuerySpec, n.kind)
	}
}

func emptySupport(v []float64) bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

// scanTokens bounds the extra goroutines block-parallel scans may run
// process-wide, so concurrent resolutions cannot multiply their fan-outs
// into GOMAXPROCS² runnable scanners. A scan that cannot claim tokens
// shrinks its fan-out (down to serial) instead of queueing — correctness
// never depends on the width actually won, only the wall-clock does.
var scanTokens = make(chan struct{}, runtime.GOMAXPROCS(0))

// blockRange is one zone block's record range [lo, hi).
type blockRange struct{ lo, hi int }

// filterScan counts, per item, the records matching the node's predicate —
// the one algebra operation that touches the transactions. Blocks the zone
// sketches prove unmatching are skipped wholesale (unless Options.NoSkip);
// each scan bumps the entry's count_scans and records_skipped observables.
// Surviving blocks are sharded across a bounded worker fan-out when the
// remaining work clears Options.MinParallelRecords; each worker scans a
// disjoint contiguous run of blocks into its own partial vector and the
// partials merge in shard order. Counts are whole numbers, so the merged
// vector is byte-identical to the serial pass at any fan-out.
func (c *evalCtx) filterScan(e *store.Entry, n *node) []float64 {
	v := c.view(e)
	db := v.Dataset()
	out := make([]float64, len(v.Arena().Counts()))
	c.stats.FilterScans++
	e.NoteCountScan()

	// Consult the sketches first: the surviving block list is what both the
	// serial and the parallel path scan. Registration and every append build
	// sketches covering all records, so the blocks tile the dataset.
	zones := v.Arena().Zones()
	var ranges []blockRange
	surviving, skipped := 0, 0
	for b := 0; b < zones.NumBlocks(); b++ {
		lo, hi := zones.BlockRange(b)
		if !c.opts.NoSkip && zones.SkipBlock(b, n.contains, n.minLen, n.maxLen) {
			c.stats.BlocksSkipped++
			skipped += hi - lo
			continue
		}
		ranges = append(ranges, blockRange{lo, hi})
		surviving += hi - lo
	}
	c.stats.RecordsSkipped += skipped
	e.NoteRecordsSkipped(uint64(skipped))

	if workers := c.scanWorkers(surviving, len(ranges)); workers > 1 {
		if c.parallelScan(db, ranges, surviving, workers, n, out) {
			return out
		}
	}
	c.noteWorkers(1)
	for _, r := range ranges {
		c.scanRange(db, r.lo, r.hi, n, out)
	}
	return out
}

// scanWorkers sizes a scan's worker fan-out: capped by Options.Workers
// (GOMAXPROCS when unset) and the surviving block count, serial below the
// min-work threshold.
func (c *evalCtx) scanWorkers(surviving, blocks int) int {
	w := c.opts.Workers
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > blocks {
		w = blocks
	}
	if w < 1 {
		return 1
	}
	min := c.opts.MinParallelRecords
	if min == 0 {
		min = DefaultMinParallelRecords
	}
	if min > 0 && surviving < min {
		return 1
	}
	return w
}

// noteWorkers records the widest fan-out any scan of the resolution used.
func (c *evalCtx) noteWorkers(w int) {
	if w > c.stats.ParallelWorkers {
		c.stats.ParallelWorkers = w
	}
}

// parallelScan shards ranges into up to workers contiguous chunks balanced
// by record count and scans them concurrently, each worker into a private
// partial vector with private dedup stamps, then folds the partials into out
// in shard order. Returns false when no process-wide scan token could be
// claimed — the caller falls back to the serial loop.
func (c *evalCtx) parallelScan(db recordSource, ranges []blockRange, surviving, workers int, n *node, out []float64) bool {
	// Claim tokens for the extra goroutines; the fan-out shrinks rather than
	// waits when other scans hold the budget.
	extra := 0
claim:
	for extra < workers-1 {
		select {
		case scanTokens <- struct{}{}:
			extra++
		default:
			break claim
		}
	}
	if extra == 0 {
		return false
	}
	workers = extra + 1

	// Contiguous shards balanced by surviving records, never more than one
	// shard short of the claimed width.
	target := (surviving + workers - 1) / workers
	shards := make([][]blockRange, 0, workers)
	start, acc := 0, 0
	for i, r := range ranges {
		acc += r.hi - r.lo
		if acc >= target && len(shards) < workers-1 {
			shards = append(shards, ranges[start:i+1])
			start, acc = i+1, 0
		}
	}
	if start < len(ranges) {
		shards = append(shards, ranges[start:])
	}
	for extra > len(shards)-1 { // balancing produced fewer shards than tokens
		<-scanTokens
		extra--
	}

	type partial struct {
		out     []float64
		scanned int
	}
	parts := make([]partial, len(shards))
	var wg sync.WaitGroup
	for i := 1; i < len(shards); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-scanTokens }()
			parts[i].out, parts[i].scanned = scanShard(db, shards[i], n, len(out))
		}(i)
	}
	parts[0].out, parts[0].scanned = scanShard(db, shards[0], n, len(out))
	wg.Wait()

	// Deterministic shard-order merge. The partials hold whole-number counts
	// well below 2^53, so the folded sums are exact and byte-identical to the
	// serial pass no matter how the balancing split the blocks.
	for _, p := range parts {
		c.stats.RecordsScanned += p.scanned
		for it, x := range p.out {
			if x != 0 {
				out[it] += x
			}
		}
	}
	c.noteWorkers(len(shards))
	return true
}

// scanShard scans one worker's run of block ranges into a private vector
// with private dedup state.
func scanShard(db recordSource, shard []blockRange, n *node, universe int) ([]float64, int) {
	out := make([]float64, universe)
	stamps := make([]int32, universe)
	var stamp int32
	scanned := 0
	for _, r := range shard {
		scanned += r.hi - r.lo
		stamp = scanRecords(db, r.lo, r.hi, n, stamps, stamp, out)
	}
	return out, scanned
}

// scanRange scans records [lo, hi) with the resolution-shared dedup stamps
// (the serial path).
func (c *evalCtx) scanRange(db recordSource, lo, hi int, n *node, out []float64) {
	c.stats.RecordsScanned += hi - lo
	if len(c.stamps) < len(out) {
		c.stamps = make([]int32, len(out))
	}
	c.stamp = scanRecords(db, lo, hi, n, c.stamps, c.stamp, out)
}

// scanRecords scans records [lo, hi), adding each matching record once to
// the count of every distinct item it contains (the same per-record dedup
// the registration count uses, via a stamp array). It returns the advanced
// stamp generation for the caller to carry into its next range.
func scanRecords(db recordSource, lo, hi int, n *node, stamps []int32, stamp int32, out []float64) int32 {
	for r := lo; r < hi; r++ {
		rec := db.Record(r)
		if len(rec) < n.minLen || (n.maxLen > 0 && len(rec) > n.maxLen) {
			continue
		}
		if !containsAll(rec, n.contains) {
			continue
		}
		stamp++
		for _, it := range rec {
			if stamps[it] != stamp {
				stamps[it] = stamp
				out[it]++
			}
		}
	}
	return stamp
}

// recordSource is the slice of the Transactions API the scanner needs.
type recordSource interface {
	Record(i int) []int32
	NumRecords() int
}

// containsAll reports whether rec holds every item in want (both may be
// unsorted; want is small — the predicate's contains list).
func containsAll(rec []int32, want []int32) bool {
outer:
	for _, w := range want {
		for _, it := range rec {
			if it == w {
				continue outer
			}
		}
		return false
	}
	return true
}

// explainNode renders the plan tree for the explain payload.
func explainNode(n *node) *NodeExplain {
	ne := &NodeExplain{Op: n.kind, CostRank: n.cost}
	switch n.kind {
	case engine.QueryItemCount:
		ne.Detail = fmt.Sprintf("%d items", len(n.items))
	case engine.QueryFilter:
		ne.Detail = fmt.Sprintf("contains=%d len=%d..%s", len(n.contains), n.minLen, lenBound(n.maxLen))
	case engine.QueryThreshold:
		ne.Detail = "count=" + formatCount(n.minCount) + ".." + countBound(n.maxCount)
	case engine.QueryJoin:
		ne.Detail = "dataset=" + n.dataset
		ne.On = explainNode(n.on)
	}
	if len(n.children) > 0 {
		ne.Children = make([]*NodeExplain, len(n.children))
		for i, ch := range n.children {
			ne.Children[i] = explainNode(ch)
		}
	}
	if len(n.order) > 1 {
		for i, idx := range n.order {
			if i != idx {
				ne.EvalOrder = n.order
				break
			}
		}
	}
	return ne
}

func lenBound(maxLen int) string {
	if maxLen == 0 {
		return "inf"
	}
	return fmt.Sprint(maxLen)
}

func countBound(maxCount float64) string {
	if maxCount == 0 {
		return "inf"
	}
	return formatCount(maxCount)
}
