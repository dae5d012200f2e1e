package store

// Compiled-plan caches. Canonicalized query specs hash to a materialized
// count vector (plus the plan's explain payload), so a repeated composite
// query costs one lock-free map lookup instead of a record scan. Each data
// generation of an entry owns its own cache: a vector is looked up and
// stored only through the View it was evaluated against, so a resolution
// that loses a race with an append fills the superseded generation's cache,
// which nothing reads again, and a stale vector is never served. The
// hit/miss/flush counters are the entry's lifetime totals, shared by all of
// its generations' caches.
//
// Reads follow the same RCU discipline as the catalog itself: Get loads the
// current immutable map through an atomic pointer and walks it without any
// lock, writers copy-and-swap under a mutex. A published map is never
// mutated in place.

import (
	"sync"
	"sync/atomic"
)

// DefaultMaxPlans bounds one dataset's cached plans. When the cache is full
// a new plan triggers a second-chance sweep: plans that served a hit since
// the last sweep survive (up to maxProtectedPlans of them), the rest are
// dropped — so one client cycling syntactic spec variants cannot evict every
// other tenant's hot plans, while memory stays bounded. Flushes counts the
// sweeps, surfaced as plan_cache_flushes_total so thrash is observable.
const DefaultMaxPlans = 256

// maxProtectedPlans caps how many recently-hit plans a second-chance sweep
// carries over: half the capacity, so even a fully hot cache frees room and
// repeated sweeps cannot pin an unbounded working set.
const maxProtectedPlans = DefaultMaxPlans / 2

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

	// hot is set by Get on a hit and cleared by the second-chance sweep —
	// the one bit of bookkeeping that lets eviction keep the working set.
	hot atomic.Bool
}

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
}

func newPlanCache(counters *planCounters) *PlanCache {
	return &PlanCache{counters: counters}
}

// Get returns the cached plan for key, counting the lookup as a hit or a
// miss. It takes no lock. A hit marks the entry as recently used, so the
// next capacity sweep keeps it.
func (c *PlanCache) Get(key string) (*PlanEntry, bool) {
	if m := c.plans.Load(); m != nil {
		if pe, ok := (*m)[key]; ok {
			c.counters.hits.Add(1)
			if !pe.hot.Load() {
				pe.hot.Store(true)
			}
			return pe, true
		}
	}
	c.counters.misses.Add(1)
	return nil, false
}

// Put caches pe under key. A full cache runs a second-chance sweep first:
// plans that served a hit since the last sweep survive, capped at
// maxProtectedPlans, and their hot bits reset so survival must be re-earned.
// Concurrent puts of the same key are idempotent — both vectors describe
// this cache's data generation, and the later put wins.
func (c *PlanCache) Put(key string, pe *PlanEntry) {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	var cur planMap
	if m := c.plans.Load(); m != nil {
		cur = *m
	}
	if len(cur) >= DefaultMaxPlans {
		next := make(planMap, maxProtectedPlans+1)
		for k, v := range cur {
			if len(next) >= maxProtectedPlans {
				break
			}
			if v.hot.Load() {
				v.hot.Store(false)
				next[k] = v
			}
		}
		next[key] = pe
		c.counters.flushes.Add(1)
		c.plans.Store(&next)
		return
	}
	next := make(planMap, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	next[key] = pe
	c.plans.Store(&next)
}

// Len returns the number of cached plans.
func (c *PlanCache) Len() int {
	if m := c.plans.Load(); m != nil {
		return len(*m)
	}
	return 0
}

// Hits and Misses return the entry's lifetime lookup counters.
func (c *PlanCache) Hits() uint64   { return c.counters.hits.Load() }
func (c *PlanCache) Misses() uint64 { return c.counters.misses.Load() }

// Flushes returns how many capacity sweeps the entry's caches have run — the
// observable behind the plan_cache_flushes_total metric.
func (c *PlanCache) Flushes() uint64 { return c.counters.flushes.Load() }

// Reset drops every cached plan (the counters keep running). Benchmarks use
// it to measure the cache-cold path.
func (c *PlanCache) Reset() {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	c.plans.Store(nil)
}
