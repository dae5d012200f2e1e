package plan

// Plan evaluation: vectorized passes over the columnar arenas. Every node
// evaluates to a full-universe count vector for the entry it runs against
// (group-by item); leaves read the arena's cached column, filters scan the
// flat storage blocks under zone-sketch and item-posting skipping — or, when
// the plan cache holds the filter's vector from an earlier generation, only
// the records appended since, and for a length-only filter, only the blocks
// after the entry's record-length table — and composites fold their operands
// elementwise in greedy (cheapest-first) order. Subtrees shared between branches evaluate once —
// the memo keyed by (dataset, canon) turns the tree into a DAG. Returned child vectors are never mutated: every
// operator folds into its own freshly allocated output, so a leaf can hand
// out the arena's shared column safely.

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/freegap/freegap/internal/dataset"
	"github.com/freegap/freegap/internal/engine"
	"github.com/freegap/freegap/internal/store"
)

// DefaultMinParallelRecords is the surviving-record threshold below which a
// filter scan stays serial. Fanning out costs a few goroutine handoffs plus
// one partial count vector and one stamp array per worker, which dominates
// until a scan has at least a few storage blocks of real work; four blocks of
// post-skip records is where the fan-out reliably pays for itself.
const DefaultMinParallelRecords = 4 * dataset.BlockRecords

// Options tunes one resolution.
type Options struct {
	// NoSkip disables data skipping — the zone sketches' length ranges, the
	// item postings `contains` filters walk (and build) and the
	// record-length table length-only filters read (and build) — so every
	// filter scans every record. Results are identical either way: skipping
	// only elides records proven unmatching, and the table is exact.
	NoSkip bool
	// NoCache bypasses the compiled-plan cache: lookup, fill, and the reuse
	// of cached filter vectors that a filter scan extends by the records
	// appended since. Plans containing a join are never looked up or filled
	// regardless (their vectors depend on a second dataset's generation),
	// though their filter nodes still extend cached filter vectors, which
	// depend on one dataset alone.
	NoCache bool
	// Workers caps the per-scan worker fan-out of block-parallel filter
	// scans: 0 means GOMAXPROCS, 1 forces serial scans. Results are
	// byte-identical at every setting — workers own disjoint runs of storage
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
	// RecordsReused counts records whose contribution filter nodes took from
	// a cached filter vector instead of scanning them.
	RecordsReused int
	// RecordsIndexed counts records whose contribution length-only filter
	// nodes took from the entry's record-length table instead of scanning
	// them: whole blocks, which an earlier resolution tallied.
	RecordsIndexed int
	// RecordsScanned counts the records of the blocks filter scans read,
	// whole or along a posting list, including the blocks a filter tallied
	// into the record-length table (unless their zone sketch skips them).
	RecordsScanned int
	// RecordsSkipped counts the records of the blocks filter scans skipped:
	// by a zone sketch's length range, or by an item's empty posting list.
	RecordsSkipped int
	// RecordsVisited counts the records filter scans read: every record of
	// a block scanned whole (or tallied, or whose posting lists a scan
	// built), and only the records on the walked list of a block read along
	// a posting list. It is at most RecordsScanned, except where a scan
	// extending a cached vector mid-block builds that block's lists.
	RecordsVisited int
	// BlocksSkipped counts whole blocks skipped.
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
// it cost. ReusedRecords counts the records covered by cached filter vectors
// the plan extended instead of rescanning, and RecordsIndexed those whose
// counts length-only filters read from the record-length table;
// RecordsScanned and RecordsSkipped cover the rest.
type Explain struct {
	Dataset        string `json:"dataset"`
	Canonical      string `json:"canonical"`
	Hash           string `json:"hash"`
	Cached         bool   `json:"cached"`
	Monotonic      bool   `json:"monotonic"`
	Answers        int    `json:"answers"`
	SketchBlocks   int    `json:"sketch_blocks"`
	RecordsTotal   int    `json:"records_total"`
	ReusedRecords  int    `json:"reused_records"`
	RecordsIndexed int    `json:"records_indexed"`
	RecordsScanned int    `json:"records_scanned"`
	RecordsSkipped int    `json:"records_skipped"`
	RecordsVisited int    `json:"records_visited"`
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
// miss evaluates the plan and fills the cache. A miss whose filter nodes
// find their vectors cached by an earlier generation extends them by the
// records appended since (still a miss, but count_scans unchanged). Lookup,
// evaluation and fill all use one View of e taken up front, so a vector is
// only ever cached for the generation it was computed from. Plans
// containing a join are never cached. cat serves cross-dataset joins and
// may be nil for join-free specs. The spec must already have passed engine
// validation.
func Resolve(cat Catalog, e *store.Entry, spec *engine.QuerySpec, opts Options) (*Result, error) {
	start := time.Now()
	n := normalize(spec)
	compile := time.Since(start)

	v := e.View()
	cache := !opts.NoCache && !hasJoin(n)
	if cache {
		if pe, ok := v.Plans().Get(n.canon); ok {
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

	ctx := &evalCtx{
		cat: cat, opts: opts, memo: make(map[string][]float64),
		views: map[*store.Entry]store.View{e: v},
	}
	answers, err := ctx.eval(e, n)
	if err != nil {
		return nil, err
	}
	e.NoteResolution()

	ex := &Explain{
		Dataset:         e.Name(),
		Canonical:       n.canon,
		Hash:            fmt.Sprintf("%016x", hashString(n.canon)),
		Monotonic:       n.mono,
		Answers:         len(answers),
		SketchBlocks:    v.Arena().Zones().NumBlocks(),
		RecordsTotal:    v.Dataset().NumRecords(),
		ReusedRecords:   ctx.stats.RecordsReused,
		RecordsIndexed:  ctx.stats.RecordsIndexed,
		RecordsScanned:  ctx.stats.RecordsScanned,
		RecordsSkipped:  ctx.stats.RecordsSkipped,
		RecordsVisited:  ctx.stats.RecordsVisited,
		BlocksSkipped:   ctx.stats.BlocksSkipped,
		ParallelWorkers: ctx.stats.ParallelWorkers,
		CompileMicros:   micros(compile),
		Plan:            explainNode(n),
	}
	if cache {
		v.Plans().Put(n.canon, &store.PlanEntry{Answers: answers, Monotonic: n.mono, Explain: ex})
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

// hasJoin reports whether n's plan reads another dataset.
func hasJoin(n *node) bool {
	if n.kind == engine.QueryJoin {
		return true
	}
	for _, c := range n.children {
		if hasJoin(c) {
			return true
		}
	}
	return false
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
	// (or pair a new dataset with an old arena) mid-plan. Resolve seeds it
	// with the view its cache lookup used.
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

// blockRun is records [from, blk.Len()) of one storage block: a filter
// scan's unit of work. Only a scan extending a cached vector starts a run
// mid-block. Under a `contains` filter, a run of a full block that its
// items' postings cover visits only the records at walk, the shortest of
// the items' lists trimmed at from; a run of the first full blocks they do
// not cover first fills lists[k] with the offsets of the block's records
// holding the filter's k-th item, one pass over its flat items per item,
// then walks the shortest in the same way. Other runs (walk and lists nil)
// scan their records.
type blockRun struct {
	blk   *dataset.Block
	from  int
	walk  []uint16
	lists [][]uint16
}

func (r blockRun) records() int { return r.blk.Len() - r.from }

// visits is the number of records the run reads.
func (r blockRun) visits() int {
	switch {
	case r.walk != nil:
		return len(r.walk)
	case r.lists != nil:
		return r.blk.Len()
	}
	return r.records()
}

// pickWalk points the run of full block b at the shortest of the filter's
// posting lists there, trimmed at the run's start, and reports false when
// one of them is empty: no record of the run holds every item.
func (r *blockRun) pickWalk(b int, cursors []store.PostingsCursor) bool {
	for i := range cursors {
		if !r.pick(cursors[i].Block(b)) {
			return false
		}
	}
	return true
}

// pick trims one item's list of the run's block at the run's start, makes
// it the run's walk if it is the shortest yet, and reports false when it is
// empty.
func (r *blockRun) pick(l []uint16) bool {
	if r.from > 0 {
		l = l[sort.Search(len(l), func(j int) bool { return int(l[j]) >= r.from }):]
	}
	if len(l) == 0 {
		return false
	}
	if r.walk == nil || len(l) < len(r.walk) {
		r.walk = l
	}
	return true
}

// filterScan counts, per item, the records matching the node's predicate —
// the one algebra operation that touches the transactions. When the plan
// cache holds the node's vector from a generation of M records (a root
// filter resolved before some appends), the first M records are already
// counted in it: the scan copies it into a vector sized to the current
// universe and visits only records [M, N), without bumping count_scans,
// which counts full scans (unless Options.NoCache).
//
// Unless Options.NoSkip, blocks are skipped wholesale, feeding the entry's
// records_skipped observable: every block when one of the predicate's
// items is absent from the generation, blocks whose zone sketch's length
// range misses the predicate's, and full blocks where one of the items has
// no posting. The other full blocks its items' postings cover visit only
// the records on their shortest list. The scan builds the postings of the
// full blocks they do not cover yet as it reads them, and publishes them
// for later resolutions: the first time an item is named, a scan of every
// block; after appends, the blocks sealed since.
//
// A length-only filter (no `contains` item) with no carried vector instead
// adds its length range's rows of the entry's record-length table, which
// counts the full blocks, and scans only the blocks after them: normally the
// partial tail. It first extends the table over the full blocks it misses,
// which count as scanned, or as skipped where their zone sketch proves them
// unmatching, as the plain scan would count them.
//
// Surviving blocks are sharded across a bounded worker fan-out when their
// records clear Options.MinParallelRecords; each worker scans a disjoint
// contiguous run of blocks (building those blocks' lists) into its own
// partial vector and the partials merge in shard order. Counts are whole
// numbers, so the merged vector is byte-identical to the serial pass at any
// fan-out.
func (c *evalCtx) filterScan(e *store.Entry, n *node) []float64 {
	v := c.view(e)
	db := v.Dataset()
	var pe *store.PlanEntry
	if !c.opts.NoCache {
		pe, _ = v.Plans().Reusable(n.canon)
	}
	if pe != nil && pe.Records() == db.NumRecords() {
		c.stats.RecordsReused += pe.Records()
		return pe.Answers // this generation's own vector
	}
	out := make([]float64, len(v.Arena().Counts()))
	reused := 0
	if pe != nil {
		reused = pe.Records()
		c.stats.RecordsReused += reused
		copy(out, pe.Answers)
	} else {
		e.NoteCountScan()
	}
	c.stats.FilterScans++

	// Skip first: the surviving runs are what both the serial and the
	// parallel path visit. A sketch or posting list that proves a whole
	// block unmatching proves its tail run unmatching too. Lists are read
	// only for blocks full in this view: a block a later append sealed is a
	// different, partial block here.
	skip, absent := !c.opts.NoSkip, false
	var (
		lists   []*store.Postings
		cursors []store.PostingsCursor
	)
	lo := math.MaxInt // the first block some item's postings do not cover
	if skip && len(n.contains) > 0 {
		for _, it := range n.contains {
			absent = absent || !v.Arena().Has(it)
		}
		lists = e.Postings(n.contains)
		for _, p := range lists {
			cursors = append(cursors, p.Cursor())
			lo = min(lo, p.Covered())
		}
	}
	zones := v.Arena().Zones()
	var runs []blockRun
	scanned, visits, skipped := 0, 0, 0
	first := reused / dataset.BlockRecords
	if skip && pe == nil && len(n.contains) == 0 {
		if t, counted := e.LengthCounts(v); t != nil {
			t.AddRange(out, n.minLen, n.maxLen)
			first = t.Covered()
			c.stats.RecordsIndexed += counted * dataset.BlockRecords
			for b := counted; b < first; b++ {
				if zones.SkipBlock(b, n.minLen, n.maxLen) {
					c.stats.BlocksSkipped++
					skipped += dataset.BlockRecords
				} else {
					scanned += dataset.BlockRecords
					c.stats.RecordsVisited += dataset.BlockRecords
				}
			}
		}
	}
	hi := lo // the scan builds lists for blocks [lo, hi), the full blocks from lo it reads in a row
	for b := first; b < db.NumBlocks(); b++ {
		run := blockRun{blk: db.Block(b)}
		if b == first {
			run.from = reused % dataset.BlockRecords
		}
		full := run.blk.Len() == dataset.BlockRecords
		if skip && (absent || zones.SkipBlock(b, n.minLen, n.maxLen) || (full && b < lo && !run.pickWalk(b, cursors))) {
			c.stats.BlocksSkipped++
			skipped += run.records()
			continue
		}
		if full && b == hi && !absent {
			run.lists = make([][]uint16, len(n.contains))
			hi++
		}
		runs = append(runs, run)
		scanned += run.records()
		visits += run.visits()
	}

	if workers := c.scanWorkers(scanned, len(runs)); workers <= 1 || !c.parallelScan(runs, visits, workers, n, out) {
		c.noteWorkers(1)
		if len(c.stamps) < len(out) {
			c.stamps = make([]int32, len(out))
		}
		for _, run := range runs {
			c.stamp = scanBlock(run, n, c.stamps, c.stamp, out)
		}
	}
	if hi > lo {
		// Publish the lists built, and count a block where one of them
		// holds no record of the run as skipped, as a walk would have:
		// the counters do not depend on which resolution built the lists.
		built := make([][][]uint16, 0, hi-lo)
		for _, run := range runs {
			if run.lists == nil {
				continue
			}
			built = append(built, run.lists)
			for _, l := range run.lists {
				if len(l) == 0 || int(l[len(l)-1]) < run.from {
					c.stats.BlocksSkipped++
					scanned -= run.records()
					visits -= run.visits()
					skipped += run.records()
					break
				}
			}
		}
		e.ExtendPostings(n.contains, lists, lo, built)
	}
	c.stats.RecordsSkipped += skipped
	c.stats.RecordsScanned += scanned
	c.stats.RecordsVisited += visits
	e.NoteRecordsSkipped(uint64(skipped))
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

// parallelScan shards runs into up to workers contiguous chunks balanced
// by the records they visit and scans them concurrently, each worker into a
// private partial vector with private dedup stamps, then folds the partials
// into out in shard order. Returns false when no process-wide scan token
// could be claimed — the caller falls back to the serial loop.
func (c *evalCtx) parallelScan(runs []blockRun, visits, workers int, n *node, out []float64) bool {
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

	// Contiguous shards balanced by visited records, never more than one
	// shard short of the claimed width.
	target := (visits + workers - 1) / workers
	shards := make([][]blockRun, 0, workers)
	start, acc := 0, 0
	for i, run := range runs {
		acc += run.visits()
		if acc >= target && len(shards) < workers-1 {
			shards = append(shards, runs[start:i+1])
			start, acc = i+1, 0
		}
	}
	if start < len(runs) {
		shards = append(shards, runs[start:])
	}
	for extra > len(shards)-1 { // balancing produced fewer shards than tokens
		<-scanTokens
		extra--
	}

	parts := make([][]float64, len(shards))
	var wg sync.WaitGroup
	for i := 1; i < len(shards); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-scanTokens }()
			parts[i] = scanShard(shards[i], n, len(out))
		}(i)
	}
	parts[0] = scanShard(shards[0], n, len(out))
	wg.Wait()

	// Deterministic shard-order merge into out (which may already hold a
	// reused vector). The partials hold whole-number counts well below 2^53,
	// so the folded sums are exact and byte-identical to the serial pass no
	// matter how the balancing split the blocks.
	for _, p := range parts {
		for it, x := range p {
			if x != 0 {
				out[it] += x
			}
		}
	}
	c.noteWorkers(len(shards))
	return true
}

// scanShard scans one worker's runs of blocks into a private vector with
// private dedup state.
func scanShard(shard []blockRun, n *node, universe int) []float64 {
	out := make([]float64, universe)
	stamps := make([]int32, universe)
	var stamp int32
	for _, run := range shard {
		stamp = scanBlock(run, n, stamps, stamp, out)
	}
	return out
}

// scanBlock visits one run of a storage block's flat items — every record,
// or only the records at the run's walk offsets — adding each record that
// matches the node's predicate once to the count of every distinct item it
// contains (the same per-record dedup the registration count uses, via a
// stamp array). A run with lists first lists the records of its block
// holding each of the predicate's items, then walks the shortest list. It
// returns the advanced stamp generation for the caller to carry into its
// next run.
func scanBlock(run blockRun, n *node, stamps []int32, stamp int32, out []float64) int32 {
	items, ends := run.blk.Items(), run.blk.Ends()
	if run.lists != nil {
		held := true
		for k, w := range n.contains {
			run.lists[k] = listRecords(items, ends, w)
			if !run.pick(run.lists[k]) {
				held = false
			}
		}
		if !held {
			return stamp
		}
	}
	switch {
	case run.walk != nil:
		// Every walked record holds the walked item, so a one-item
		// predicate needs no item test.
		others := len(n.contains) > 1
		for _, o := range run.walk {
			var start uint32
			if o > 0 {
				start = ends[o-1]
			}
			rec := items[start:ends[o]]
			if len(rec) < n.minLen || (n.maxLen > 0 && len(rec) > n.maxLen) {
				continue
			}
			if others && !containsAll(rec, n.contains) {
				continue
			}
			stamp = tally(rec, stamps, stamp, out)
		}

	default:
		var start uint32
		if run.from > 0 {
			start = ends[run.from-1]
		}
		for _, end := range ends[run.from:] {
			rec := items[start:end]
			start = end
			if len(rec) < n.minLen || (n.maxLen > 0 && len(rec) > n.maxLen) {
				continue
			}
			if !containsAll(rec, n.contains) {
				continue
			}
			stamp = tally(rec, stamps, stamp, out)
		}
	}
	return stamp
}

// listRecords returns the ascending offsets of the records of a block, given
// by its flat items and record ends, that hold item w. It compares the flat
// items with w eight at a time and locates the record of a match by
// advancing through the ends, so a pass costs about one compare per item
// where a record-by-record scan pays each record's setup too.
func listRecords(items []int32, ends []uint32, w int32) []uint16 {
	var l []uint16
	r := 0
	for i := 0; i < len(items); {
		if i+8 <= len(items) {
			q := items[i : i+8 : i+8]
			if q[0] != w && q[1] != w && q[2] != w && q[3] != w && q[4] != w && q[5] != w && q[6] != w && q[7] != w {
				i += 8
				continue
			}
		}
		for end := min(i+8, len(items)); i < end; i++ {
			if items[i] != w {
				continue
			}
			for ends[r] <= uint32(i) {
				r++
			}
			if len(l) == 0 || int(l[len(l)-1]) != r {
				l = append(l, uint16(r))
			}
		}
	}
	return l
}

// tally adds the matching record rec once to the count of every distinct
// item it holds, marking the items with the next stamp generation, which it
// returns.
func tally(rec []int32, stamps []int32, stamp int32, out []float64) int32 {
	stamp++
	for _, it := range rec {
		if stamps[it] != stamp {
			stamps[it] = stamp
			out[it]++
		}
	}
	return stamp
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
