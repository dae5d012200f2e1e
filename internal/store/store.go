// Package store is the server-side dataset catalog: a concurrency-safe
// registry of named, appendable transaction databases that the serving layer
// resolves counting-query workloads against. Registering a dataset — from a
// FIMI-format upload, a synthetic generator, or a preload file — precomputes
// its item-count vector exactly once; every resolved request afterwards is
// served from that cached read-only slice, so the hot path never rescans the
// transactions. Appending a delta builds the next immutable data generation
// from the previous one — the transactions share every full storage block
// and copy only the partial tail block, and the count vector, presence
// bitset, min/max and zone sketches are all delta-maintained by scanning only
// the new records — and installs it with one atomic pointer swap, so readers
// always see a consistent dataset and the zero-per-request-rescan property
// survives streaming ingestion. The item postings `contains` filters walk
// are built by the filter scans themselves, per item on first use
// (postings.go); registration and appends build none. This is the curator
// trust model of the paper: the server holds the data and answers
// sensitivity-1 counting queries under DP, instead of clients shipping
// precomputed answers with every request.
package store

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/freegap/freegap/internal/dataset"
)

// MaxNameLen bounds dataset names; they become URL path segments
// (GET /v1/datasets/{name}) and telemetry label values.
const MaxNameLen = 64

// Default catalog limits applied by New.
const (
	// DefaultMaxDatasets bounds how many datasets a catalog holds.
	DefaultMaxDatasets = 1024
	// DefaultMaxItems bounds the item universe of one dataset. Each distinct
	// item costs 8 bytes in the cached count vector, so an unbounded upload
	// containing the single line "2000000000" would otherwise materialise a
	// multi-gigabyte slice. It deliberately equals the serving layer's
	// default per-request answer cap (server.DefaultMaxAnswers), so a
	// catalogued dataset's all_items workload is always servable.
	DefaultMaxItems = 1 << 20
	// DefaultMaxRecords bounds the transaction count of one dataset.
	DefaultMaxRecords = 1 << 24
)

// Sentinel errors, exposed so callers can map them to API error codes.
var (
	// ErrUnknownDataset reports a lookup of an uncatalogued name.
	ErrUnknownDataset = errors.New("store: unknown dataset")
	// ErrDatasetExists reports a registration under a taken name.
	ErrDatasetExists = errors.New("store: dataset already registered")
	// ErrStaleAppend reports an InstallAppend whose prepared base generation
	// was superseded by another append; the caller re-prepares and retries.
	ErrStaleAppend = errors.New("store: append prepared against a superseded generation")
)

// Limits bounds what a catalog accepts. Zero fields mean the package
// defaults, negative fields mean unlimited.
type Limits struct {
	// MaxDatasets bounds the number of catalogued datasets.
	MaxDatasets int
	// MaxItems bounds a dataset's item universe (max item id + 1).
	MaxItems int
	// MaxRecords bounds a dataset's transaction count.
	MaxRecords int
}

func (l Limits) withDefaults() Limits {
	if l.MaxDatasets == 0 {
		l.MaxDatasets = DefaultMaxDatasets
	}
	if l.MaxItems == 0 {
		l.MaxItems = DefaultMaxItems
	}
	if l.MaxRecords == 0 {
		l.MaxRecords = DefaultMaxRecords
	}
	return l
}

// catalog is one immutable generation of the store's name → entry mapping.
// Readers load the current generation atomically and walk it without any
// lock; writers build the next generation under the write mutex and swap the
// pointer (RCU-style), so a registration never blocks a resolving request.
type catalog = map[string]*Entry

// Store is the concurrency-safe dataset catalog. Registration normally
// happens at startup (preloads) or through the dataset API; lookups happen
// on every resolved request, which is why they are lock-free: Get is an
// atomic pointer load plus a read of an immutable map.
type Store struct {
	limits Limits
	// writeMu serializes Register/Remove/Append (the copy-and-swap writers).
	writeMu sync.Mutex
	// byName points at the current immutable catalog generation. Never
	// mutated in place; always replaced wholesale under writeMu.
	byName atomic.Pointer[catalog]
}

// New returns an empty catalog with the default limits.
func New() *Store { return NewWithLimits(Limits{}) }

// NewWithLimits returns an empty catalog with the given limits.
func NewWithLimits(lim Limits) *Store {
	s := &Store{limits: lim.withDefaults()}
	empty := make(catalog)
	s.byName.Store(&empty)
	return s
}

// snapshot returns the current immutable catalog generation.
func (s *Store) snapshot() catalog { return *s.byName.Load() }

// Limits returns the catalog's effective limits (after defaulting), so
// ingestion paths (uploads, preloads) can enforce the same caps at parse
// time that Register enforces at registration.
func (s *Store) Limits() Limits { return s.limits }

// Entry is one catalogued dataset: a name bound to a sequence of immutable
// data generations. Each generation pairs the transactions with the columnar
// count arena built from exactly those transactions; Append publishes the
// next generation with one atomic swap, so lock-free readers always see a
// matched (dataset, arena) pair. The counters make the caching observable:
// CountScans stays at its registration value however many requests resolve
// against the entry — and however many deltas are appended, because appends
// delta-maintain the derived state instead of rescanning.
type Entry struct {
	name    string
	source  string
	created time.Time

	// gen points at the current immutable data generation; replaced
	// wholesale under the store's writeMu, loaded lock-free by readers.
	gen atomic.Pointer[entryGen]

	resolutions atomic.Uint64 // query resolutions served from the cache
	scans       atomic.Uint64 // count materialisations; cached resolutions and appends never add
	skipped     atomic.Uint64 // records in blocks filter scans proved unmatching and never scanned

	// postings holds the record postings of the items filters have named,
	// over full storage blocks, which every generation shares.
	postings postingIndex

	// planCounters are the lifetime hit/miss/flush totals of every
	// generation's plan cache.
	planCounters planCounters
}

// entryGen is one immutable data generation of an entry: everything an
// append replaces atomically.
type entryGen struct {
	db     *dataset.Transactions
	arena  *Arena
	counts []float64     // the arena's column; treated as read-only ever after
	stats  dataset.Stats // maintained incrementally; Info would otherwise rescan for MeanLength
	lenSum int           // total item slots across records, so MeanLength extends exactly
	// plans caches compiled composite-query plans keyed by canonical spec
	// (see the query planner). Entries Put through this generation are
	// stamped with its record count and served by Get; entries carried from
	// earlier generations keep their smaller stamps, so Get never serves
	// them, and the planner only extends their filter vectors by the
	// records appended since.
	plans *PlanCache
}

// View is one consistent snapshot of an entry's data generation. Code that
// touches more than one of the transactions, the arena and the plan cache
// (filter scans, explain, plan resolution) must read them through a single
// View — two separate loads could straddle an append and pair a new dataset
// with an old arena, or cache an old vector for the new generation.
type View struct {
	db    *dataset.Transactions
	arena *Arena
	plans *PlanCache
}

// Dataset returns the snapshot's transactions (read-only by contract).
func (v View) Dataset() *dataset.Transactions { return v.db }

// Arena returns the snapshot's columnar count arena (read-only by contract).
func (v View) Arena() *Arena { return v.arena }

// Plans returns the snapshot generation's compiled-plan cache.
func (v View) Plans() *PlanCache { return v.plans }

// Info summarises an entry for the dataset API.
type Info struct {
	// Name is the catalog key.
	Name string `json:"name"`
	// Source records where the dataset came from (e.g. "upload:fimi",
	// "synthetic:bmspos", "file:/data/kosarak.dat").
	Source string `json:"source"`
	// Records is the number of transactions.
	Records int `json:"records"`
	// Items is the size of the item universe (max item id + 1).
	Items int `json:"items"`
	// MeanLength is the average transaction length.
	MeanLength float64 `json:"mean_length"`
	// MinCount is the smallest non-zero item count (0 if every count is 0).
	MinCount float64 `json:"min_count"`
	// MaxCount is the largest item count.
	MaxCount float64 `json:"max_count"`
	// NonzeroItems is how many items occur in at least one transaction.
	NonzeroItems int `json:"nonzero_items"`
	// SketchBlocks is the number of zone-sketch blocks built for data
	// skipping (0 for a dataset with no records).
	SketchBlocks int `json:"sketch_blocks"`
	// PlanCacheEntries is the number of cached compiled query plans,
	// including those carried from earlier generations.
	PlanCacheEntries int `json:"plan_cache_entries"`
	// RecordsSkipped counts the records of blocks filter scans skipped
	// entirely: a zone sketch's length range or an item's empty posting list
	// (or an item absent from the dataset) proved them unmatching. A block a
	// filter walks by its posting list counts as scanned.
	RecordsSkipped uint64 `json:"records_skipped"`
	// Resolutions counts query resolutions served from the cached counts.
	Resolutions uint64 `json:"resolutions"`
	// CountScans counts count-vector materialisations: the registration scan
	// plus one per filter node that had to scan every record on a plan-cache
	// miss. Extending a carried filter vector by the records appended since
	// does not count. It stays at 1 however many requests resolve from the
	// cached counts or the plan cache.
	CountScans uint64 `json:"count_scans"`
	// CreatedAt is the registration time.
	CreatedAt time.Time `json:"created_at"`
}

// ValidName reports whether name is acceptable as a catalog key: non-empty,
// at most MaxNameLen bytes of [a-z0-9._-], so it can be embedded verbatim in
// a route pattern and a Prometheus label.
func ValidName(name string) error {
	if name == "" {
		return errors.New("store: dataset name must be non-empty")
	}
	if len(name) > MaxNameLen {
		return fmt.Errorf("store: dataset name %q longer than %d bytes", name, MaxNameLen)
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("store: dataset name %q contains %q (allowed: a-z, 0-9, '.', '_', '-')", name, c)
		}
	}
	return nil
}

// Register catalogues db under name, precomputing its item-count arena. The
// database must not be mutated by the caller afterwards. source is a short
// free-form provenance label carried into Info.
func (s *Store) Register(name, source string, db *dataset.Transactions) (*Entry, error) {
	if err := ValidName(name); err != nil {
		return nil, err
	}
	if db == nil {
		return nil, errors.New("store: nil dataset")
	}
	if s.limits.MaxRecords > 0 && db.NumRecords() > s.limits.MaxRecords {
		return nil, fmt.Errorf("store: dataset %q has %d records, exceeding the limit of %d", name, db.NumRecords(), s.limits.MaxRecords)
	}
	if s.limits.MaxItems > 0 && db.NumItems() > s.limits.MaxItems {
		return nil, fmt.Errorf("store: dataset %q has an item universe of %d, exceeding the limit of %d", name, db.NumItems(), s.limits.MaxItems)
	}
	// Cheap duplicate pre-check so a taken name fails before the (possibly
	// expensive) count precompute; the authoritative check re-runs under the
	// write lock below.
	cur := s.snapshot()
	if _, taken := cur[name]; taken {
		return nil, fmt.Errorf("%w: %q", ErrDatasetExists, name)
	}
	if s.limits.MaxDatasets > 0 && len(cur) >= s.limits.MaxDatasets {
		return nil, fmt.Errorf("store: catalog holds %d datasets, the maximum", s.limits.MaxDatasets)
	}

	e := &Entry{name: name, source: source, created: time.Now()}
	e.scans.Add(1) // the one registration count materialisation for this entry
	// The registration transaction scan. Zone sketches ride the same pass
	// budget: one extra O(records) walk; appends extend them incrementally.
	arena := newArena(db.ItemCounts())
	arena.zones = BuildZones(db)
	e.gen.Store(&entryGen{
		db: db, arena: arena, counts: arena.Counts(),
		stats: db.Stats(), lenSum: db.TotalLength(),
		plans: newPlanCache(&e.planCounters, db.NumRecords()),
	})

	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	cur = s.snapshot()
	if _, ok := cur[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrDatasetExists, name)
	}
	if s.limits.MaxDatasets > 0 && len(cur) >= s.limits.MaxDatasets {
		return nil, fmt.Errorf("store: catalog holds %d datasets, the maximum", s.limits.MaxDatasets)
	}
	next := make(catalog, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	next[name] = e
	s.byName.Store(&next)
	return e, nil
}

// Remove drops the entry catalogued under name, reporting whether it
// existed. Catalogued datasets stay registered for their lifetime — Remove
// exists solely so the serving layer can roll back a registration whose
// durable journalling failed, keeping "registered" equivalent to "survives a
// restart" on persistent servers.
func (s *Store) Remove(name string) bool {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	cur := s.snapshot()
	if _, ok := cur[name]; !ok {
		return false
	}
	next := make(catalog, len(cur)-1)
	for k, v := range cur {
		if k != name {
			next[k] = v
		}
	}
	s.byName.Store(&next)
	return true
}

// validateAppend checks delta against the limits relative to generation g,
// returning the appended generation's item universe.
func (s *Store) validateAppend(g *entryGen, name string, delta [][]int32) (items int, err error) {
	items = g.db.NumItems()
	for ri, r := range delta {
		for _, it := range r {
			if it < 0 {
				return 0, fmt.Errorf("store: append to %q: record %d holds negative item id %d", name, ri, it)
			}
			if int(it)+1 > items {
				items = int(it) + 1
			}
		}
	}
	if s.limits.MaxRecords > 0 && g.db.NumRecords()+len(delta) > s.limits.MaxRecords {
		return 0, fmt.Errorf("store: appending %d records to %q would exceed the limit of %d",
			len(delta), name, s.limits.MaxRecords)
	}
	if s.limits.MaxItems > 0 && items > s.limits.MaxItems {
		return 0, fmt.Errorf("store: append to %q would grow the item universe to %d, exceeding the limit of %d",
			name, items, s.limits.MaxItems)
	}
	return items, nil
}

// PendingAppend is one fully-built next data generation awaiting install:
// the output of PrepareAppend, consumed by InstallAppend. Preparing does all
// the delta-derived work — tail block copy, count deltas, sketch and zone
// extension — without holding any store lock, so concurrent appends to
// different datasets overlap their builds and only serialize on the install.
type PendingAppend struct {
	entry *Entry
	base  *entryGen
	next  *entryGen
}

// Entry returns the entry the pending append extends.
func (p *PendingAppend) Entry() *Entry { return p.entry }

// Stale reports whether another append superseded the generation this one
// was prepared against; InstallAppend would fail with ErrStaleAppend.
func (p *PendingAppend) Stale() bool { return p.entry.gen.Load() != p.base }

// PrepareAppend validates delta against the catalog limits and builds the
// next data generation of the dataset catalogued under name — storage blocks
// (the full ones shared, the partial tail copied), count arena, presence
// bitset, min/max summaries and zone sketches, all extended from the delta
// alone, and a plan cache seeded with the base generation's cached plans by
// sharing its published map — without taking the store's write lock. The
// carried plans keep the base's record-count stamp, so the new generation
// serves none of them as hits; the planner extends their filter vectors by
// the delta instead.
// Its cost is O(delta + one block + number of blocks) for the records and
// sketches plus O(items) for the dense count column. The caller publishes
// the result with InstallAppend; until then nothing is visible to readers,
// and a dropped PendingAppend costs nothing: the base generation is never
// written, so several appends may be prepared against it.
func (s *Store) PrepareAppend(name string, delta [][]int32) (*PendingAppend, error) {
	e, err := s.Get(name)
	if err != nil {
		return nil, err
	}
	g := e.gen.Load()
	items, err := s.validateAppend(g, name, delta)
	if err != nil {
		return nil, err
	}
	db := g.db.AppendRecords(delta)
	arena := extendArena(g.arena, delta, items)
	arena.zones = ExtendZones(g.arena.Zones(), db, g.db.NumRecords())
	lenSum := g.lenSum
	for _, r := range delta {
		lenSum += len(r)
	}
	stats := g.stats
	stats.Records, stats.Items = db.NumRecords(), items
	if stats.Records > 0 {
		stats.MeanLength = float64(lenSum) / float64(stats.Records)
	}
	return &PendingAppend{
		entry: e,
		base:  g,
		next: &entryGen{
			db: db, arena: arena, counts: arena.Counts(), stats: stats, lenSum: lenSum,
			plans: g.plans.carry(db.NumRecords()),
		},
	}, nil
}

// InstallAppend publishes a prepared append as the entry's current data
// generation with one atomic swap; the new generation brings its own
// compiled-plan cache, holding the plans carried from its base under their
// base stamps. It fails with ErrStaleAppend when another append won
// the race since PrepareAppend — the caller re-prepares against the new
// generation — and with ErrUnknownDataset when the entry was removed in
// between.
func (s *Store) InstallAppend(p *PendingAppend) (*Entry, error) {
	e := p.entry
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if cur, ok := s.snapshot()[e.name]; !ok || cur != e {
		return nil, fmt.Errorf("%w: %q", ErrUnknownDataset, e.name)
	}
	if e.gen.Load() != p.base {
		return nil, fmt.Errorf("%w: %q", ErrStaleAppend, e.name)
	}
	e.gen.Store(p.next)
	return e, nil
}

// Append extends the dataset catalogued under name with delta transactions,
// delta-maintaining every piece of derived state — count vector, presence
// bitset, min/max summaries and zone sketches — and installing the result as
// the entry's next data generation with one atomic swap. Only the delta is
// ever scanned: the transactions share the previous generation's full
// blocks, the count column is the old column plus the delta's contributions,
// and the zone sketches are extended block-monotonically. CountScans therefore does
// not move, which is what pins "append" as incremental rather than a
// re-registration. An empty delta is a valid no-op append. Append is
// PrepareAppend + InstallAppend in a retry loop; callers that must order an
// append against other per-dataset work (journalling, monitor delivery) use
// the two halves directly and keep only the install inside their lock.
func (s *Store) Append(name string, delta [][]int32) (*Entry, error) {
	for {
		p, err := s.PrepareAppend(name, delta)
		if err != nil {
			return nil, err
		}
		e, err := s.InstallAppend(p)
		if errors.Is(err, ErrStaleAppend) {
			continue // another appender won; rebuild from its generation
		}
		return e, err
	}
}

// Get returns the entry catalogued under name. It takes no lock: the lookup
// reads the current immutable catalog generation through an atomic pointer,
// so dataset-backed requests never contend with registrations.
func (s *Store) Get(name string) (*Entry, error) {
	e, ok := s.snapshot()[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownDataset, name)
	}
	return e, nil
}

// Len returns the number of catalogued datasets.
func (s *Store) Len() int { return len(s.snapshot()) }

// Names returns the catalogued names, sorted.
func (s *Store) Names() []string {
	cur := s.snapshot()
	out := make([]string, 0, len(cur))
	for name := range cur {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// List returns every entry's Info in name order.
func (s *Store) List() []Info {
	cur := s.snapshot()
	entries := make([]*Entry, 0, len(cur))
	for _, e := range cur {
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
	out := make([]Info, len(entries))
	for i, e := range entries {
		out[i] = e.Info()
	}
	return out
}

// Close is a no-op that always returns nil: every arena lives on the heap,
// so the store holds nothing that needs releasing. It exists so callers can
// treat the store like their other closable resources.
func (s *Store) Close() error { return nil }

// Name returns the catalog key.
func (e *Entry) Name() string { return e.name }

// View returns one consistent snapshot of the entry's current data
// generation. Callers that need more than one of the transactions, the arena
// and the plan cache must take a single View and use it throughout —
// separate Arena/Dataset/Plans calls could observe different generations
// across an append.
func (e *Entry) View() View {
	g := e.gen.Load()
	return View{db: g.db, arena: g.arena, plans: g.plans}
}

// Arena returns the current generation's columnar count arena (read-only by
// contract). Use View when the matching transactions are needed too.
func (e *Entry) Arena() *Arena { return e.gen.Load().arena }

// Dataset returns the current generation's transactions (read-only by
// contract). Use View when the matching arena is needed too.
func (e *Entry) Dataset() *dataset.Transactions { return e.gen.Load().db }

// Info summarises the entry from the stats maintained incrementally at
// registration and on every append.
func (e *Entry) Info() Info {
	g := e.gen.Load()
	return Info{
		Name:         e.name,
		Source:       e.source,
		Records:      g.stats.Records,
		Items:        g.stats.Items,
		MeanLength:   g.stats.MeanLength,
		MinCount:     g.arena.MinCount(),
		MaxCount:     g.arena.MaxCount(),
		NonzeroItems: g.arena.NonzeroItems(),

		SketchBlocks:     g.arena.Zones().NumBlocks(),
		PlanCacheEntries: g.plans.Len(),
		RecordsSkipped:   e.skipped.Load(),

		Resolutions: e.resolutions.Load(),
		CountScans:  e.scans.Load(),
		CreatedAt:   e.created,
	}
}

// ResolveAll returns the cached item-count vector — one sensitivity-1
// monotonic counting query per item in the universe, the exact Section 7
// workload. The returned slice is shared and must not be modified.
func (e *Entry) ResolveAll() []float64 {
	e.resolutions.Add(1)
	return e.gen.Load().counts
}

// ResolveItems returns the counts of the given items, answered by indexing
// the arena (never by rescanning the transactions). The presence bitset is
// consulted first, so absent items — including ids beyond the universe,
// which legitimately count zero — never touch the counts column. Negative
// ids are rejected.
func (e *Entry) ResolveItems(items []int32) ([]float64, error) {
	g := e.gen.Load()
	out := make([]float64, len(items))
	for i, it := range items {
		if it < 0 {
			return nil, fmt.Errorf("store: items[%d] = %d is negative", i, it)
		}
		if g.arena.Has(it) {
			out[i] = g.counts[int(it)]
		}
	}
	e.resolutions.Add(1)
	return out, nil
}

// Resolutions returns how many query resolutions the entry has served.
func (e *Entry) Resolutions() uint64 { return e.resolutions.Load() }

// NoteResolution counts one query resolution served against the entry; the
// query planner calls it for composite specs, which bypass ResolveAll and
// ResolveItems.
func (e *Entry) NoteResolution() { e.resolutions.Add(1) }

// CountScans returns how many times the entry materialised counts from all
// of its records: the registration scan plus one per full filter scan on a
// plan-cache miss. Plan-cache hits and extensions of carried filter vectors
// never add, so the counter pins the cache's effectiveness.
func (e *Entry) CountScans() uint64 { return e.scans.Load() }

// NoteCountScan counts one full record-scanning count materialisation (a
// filter evaluated on a plan-cache miss with no carried vector to extend).
func (e *Entry) NoteCountScan() { e.scans.Add(1) }

// RecordsSkipped returns how many records filter scans skipped by block
// (see Info.RecordsSkipped).
func (e *Entry) RecordsSkipped() uint64 { return e.skipped.Load() }

// NoteRecordsSkipped adds n skipped records to the entry's counter.
func (e *Entry) NoteRecordsSkipped(n uint64) { e.skipped.Add(n) }

// Plans returns the current generation's compiled-plan cache; its hit, miss
// and flush counters are the entry's lifetime totals. Use View when the
// cached vectors must match the transactions or arena read alongside.
func (e *Entry) Plans() *PlanCache { return e.gen.Load().plans }

// GenerateSynthetic builds one of the calibrated synthetic stand-ins for the
// paper's Section 7 datasets by kind: "bmspos", "kosarak" or "t40i10d100k"
// (alias "quest"). scale divides the transaction count for fast runs
// (<= 1 means full size).
func GenerateSynthetic(kind string, scale int, seed uint64) (*dataset.Transactions, error) {
	switch strings.ToLower(kind) {
	case "bmspos":
		return dataset.BMSPOSConfig().ScaledDown(scale).Generate(seed), nil
	case "kosarak":
		return dataset.KosarakConfig().ScaledDown(scale).Generate(seed), nil
	case "t40i10d100k", "quest":
		return dataset.T40I10D100KConfig().ScaledDown(scale).Generate(seed), nil
	default:
		return nil, fmt.Errorf("store: unknown synthetic dataset kind %q (valid: bmspos, kosarak, t40i10d100k)", kind)
	}
}

// Preload describes one dataset to catalogue at server construction: either a
// FIMI-format file (Path) or a synthetic generator (Synthetic), never both.
type Preload struct {
	// Name is the catalog key to register under.
	Name string
	// Path is a FIMI-format transaction file to load.
	Path string
	// Synthetic is a synthetic dataset kind accepted by GenerateSynthetic.
	Synthetic string
	// Scale divides the synthetic transaction count (<= 1 means full size).
	Scale int
	// Seed seeds the synthetic generator.
	Seed uint64
}

// Load materialises the preload and registers it into s.
func (p Preload) Load(s *Store) (*Entry, error) {
	switch {
	case p.Path != "" && p.Synthetic != "":
		return nil, fmt.Errorf("store: preload %q names both a file and a synthetic kind", p.Name)
	case p.Path != "":
		db, err := dataset.ReadFIMIFileLimited(p.Path, dataset.FIMILimits{
			MaxRecords: s.limits.MaxRecords,
			MaxItemID:  int32(s.limits.MaxItems) - 1,
		})
		if err != nil {
			return nil, err
		}
		return s.Register(p.Name, "file:"+p.Path, db)
	case p.Synthetic != "":
		db, err := GenerateSynthetic(p.Synthetic, p.Scale, p.Seed)
		if err != nil {
			return nil, err
		}
		return s.Register(p.Name, "synthetic:"+strings.ToLower(p.Synthetic), db)
	default:
		return nil, fmt.Errorf("store: preload %q names neither a file nor a synthetic kind", p.Name)
	}
}
