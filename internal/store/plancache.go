package store

// Compiled-plan caches. Canonicalized query specs hash to a materialized
// count vector (plus the plan's explain payload), so a repeated composite
// query costs one lock-free map lookup instead of a record scan. Each data
// generation of an entry owns its own cache, and Put stamps every entry with
// the record count of that generation. An append seeds the next
// generation's cache with its base's published map (a pointer share, never
// a copy), so entries are carried across appends; Get serves only entries
// stamped with the cache's own record count, while Reusable hands a carried
// entry to the planner, which extends a filter vector by the records
// appended since its stamp instead of rescanning the dataset. Because
// datasets only grow by appends, an entry stamped with M records is exact
// for the first M records of every later generation. A vector is stamped
// and stored only through the View it was evaluated against, so a
// resolution that loses a race with an append fills the superseded
// generation's cache, which the new generation no longer shares. The
// hit/miss/flush counters are the entry's lifetime totals, shared by all of
// its generations' caches.
//
// Reads follow the same RCU discipline as the catalog itself: Get loads the
// current immutable map through an atomic pointer and walks it without any
// lock, writers copy-and-swap under a mutex. A published map is never
// mutated in place, which is what lets two generations share one.

import (
	"sync"
	"sync/atomic"
)

// DefaultMaxPlans bounds one dataset's cached plans. When the cache is full
// a new plan empties it and starts it afresh, so memory stays bounded.
// Flushes counts these resets, surfaced as plan_cache_flushes_total so
// thrash is observable.
const DefaultMaxPlans = 256

// PlanEntry is one cached compiled plan: the materialized full-universe
// count vector, its monotonicity, and the planner's explain payload (opaque
// to the store) replayed on cache hits.
type PlanEntry struct {
	// Answers is the materialized count vector (read-only by contract).
	Answers []float64
	// Monotonic reports whether the spec lies in the monotone fragment.
	Monotonic bool
	// Explain is the planner's explain payload for the compiled plan.
	Explain any

	// records is the record count of the generation Answers was evaluated
	// against, stamped by Put.
	records int
}

// Records returns the record count of the data generation the entry was
// evaluated against: Answers covers exactly the first Records records.
func (pe *PlanEntry) Records() int { return pe.records }

// planMap is one immutable snapshot of a cache's key → plan mapping.
type planMap = map[string]*PlanEntry

// planCounters are an entry's lifetime plan-cache counters.
type planCounters struct {
	hits    atomic.Uint64
	misses  atomic.Uint64
	flushes atomic.Uint64
}

// PlanCache is one data generation's concurrency-safe compiled-plan cache,
// keyed by canonical spec strings.
type PlanCache struct {
	// writeMu serializes Put/Reset (the copy-and-swap writers).
	writeMu sync.Mutex
	// plans points at the current immutable map; nil means empty.
	plans atomic.Pointer[planMap]
	// counters are shared with every other generation of the same entry.
	counters *planCounters
	// records is the record count of the cache's data generation.
	records int
}

func newPlanCache(counters *planCounters, records int) *PlanCache {
	return &PlanCache{counters: counters, records: records}
}

// carry returns the cache of the next data generation, which holds records
// records, seeded with every entry c holds now. The published map is shared,
// not copied: neither cache ever mutates it, and each one's next Put swaps in
// a map of its own.
func (c *PlanCache) carry(records int) *PlanCache {
	next := newPlanCache(c.counters, records)
	next.plans.Store(c.plans.Load())
	return next
}

func (c *PlanCache) lookup(key string) (*PlanEntry, bool) {
	if m := c.plans.Load(); m != nil {
		pe, ok := (*m)[key]
		return pe, ok
	}
	return nil, false
}

// Get returns the plan cached under key for exactly this generation,
// counting the lookup as a hit or a miss. An entry carried from an earlier
// generation is a miss. It takes no lock.
func (c *PlanCache) Get(key string) (*PlanEntry, bool) {
	if pe, ok := c.lookup(key); ok && pe.records == c.records {
		c.counters.hits.Add(1)
		return pe, true
	}
	c.counters.misses.Add(1)
	return nil, false
}

// Reusable returns the plan cached under key whichever generation stamped
// it: this one, or an earlier one whose Records is smaller. Its vector is
// exact for the first Records records, so a caller that knows how to extend
// it by the later records need not rescan the earlier ones. It moves no
// hit/miss counter.
func (c *PlanCache) Reusable(key string) (*PlanEntry, bool) {
	return c.lookup(key)
}

// Put stamps pe with this generation's record count and caches it under
// key, replacing any entry carried from an earlier generation. A full cache
// is emptied first, and then holds pe alone. Concurrent puts of the same key
// are idempotent — both vectors describe this cache's data generation, and
// the later put wins.
func (c *PlanCache) Put(key string, pe *PlanEntry) {
	pe.records = c.records
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	var cur planMap
	if m := c.plans.Load(); m != nil {
		cur = *m
	}
	if len(cur) >= DefaultMaxPlans {
		cur = nil
		c.counters.flushes.Add(1)
	}
	next := make(planMap, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	next[key] = pe
	c.plans.Store(&next)
}

// Len returns the number of cached plans, carried ones included.
func (c *PlanCache) Len() int {
	if m := c.plans.Load(); m != nil {
		return len(*m)
	}
	return 0
}

// Hits and Misses return the entry's lifetime lookup counters.
func (c *PlanCache) Hits() uint64   { return c.counters.hits.Load() }
func (c *PlanCache) Misses() uint64 { return c.counters.misses.Load() }

// Flushes returns how many times the entry's caches were emptied on reaching
// capacity — the observable behind the plan_cache_flushes_total metric.
func (c *PlanCache) Flushes() uint64 { return c.counters.flushes.Load() }

// Reset drops every cached plan (the counters keep running). Benchmarks use
// it to measure the cache-cold path.
func (c *PlanCache) Reset() {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	c.plans.Store(nil)
}
