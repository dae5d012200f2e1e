package plan

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/freegap/freegap/internal/dataset"
	"github.com/freegap/freegap/internal/engine"
	"github.com/freegap/freegap/internal/store"
)

// naiveEval is the reference evaluator: it walks the spec tree directly and
// rescans the transaction list for every filter, with none of the compiler's
// rewrites, memoization, caching or skipping. Every plan the compiler emits
// must produce a count vector byte-identical to this.
func naiveEval(cat map[string]*dataset.Transactions, db *dataset.Transactions, q *engine.QuerySpec) ([]float64, error) {
	universe := db.NumItems()
	switch q.Kind {
	case engine.QueryAllItems:
		return db.ItemCounts(), nil

	case engine.QueryItemCount:
		counts := db.ItemCounts()
		out := make([]float64, universe)
		for _, it := range q.Items {
			if it >= 0 && int(it) < universe {
				out[it] = counts[it]
			}
		}
		return out, nil

	case engine.QueryFilter:
		out := make([]float64, universe)
		seen := make(map[int32]bool)
		for r := 0; r < db.NumRecords(); r++ {
			rec := db.Record(r)
			if len(rec) < q.Where.MinLen || (q.Where.MaxLen > 0 && len(rec) > q.Where.MaxLen) {
				continue
			}
			ok := true
			for _, w := range q.Where.Contains {
				found := false
				for _, it := range rec {
					if it == w {
						found = true
						break
					}
				}
				if !found {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			for k := range seen {
				delete(seen, k)
			}
			for _, it := range rec {
				if !seen[it] {
					seen[it] = true
					out[it]++
				}
			}
		}
		return out, nil

	case engine.QueryThreshold:
		child, err := naiveEval(cat, db, q.Of[0])
		if err != nil {
			return nil, err
		}
		out := make([]float64, universe)
		for i, v := range child {
			if v >= q.MinCount && (q.MaxCount == 0 || v <= q.MaxCount) {
				out[i] = v
			}
		}
		return out, nil

	case engine.QueryUnion, engine.QueryIntersect:
		var out []float64
		for _, op := range q.Of {
			v, err := naiveEval(cat, db, op)
			if err != nil {
				return nil, err
			}
			if out == nil {
				out = append([]float64(nil), v...)
				continue
			}
			for i, x := range v {
				if q.Kind == engine.QueryUnion && x > out[i] {
					out[i] = x
				}
				if q.Kind == engine.QueryIntersect && x < out[i] {
					out[i] = x
				}
			}
		}
		return out, nil

	case engine.QueryMinus:
		a, err := naiveEval(cat, db, q.Of[0])
		if err != nil {
			return nil, err
		}
		b, err := naiveEval(cat, db, q.Of[1])
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
		left, err := naiveEval(cat, db, q.Of[0])
		if err != nil {
			return nil, err
		}
		other, ok := cat[q.Dataset]
		if !ok {
			return nil, fmt.Errorf("naive: unknown dataset %q", q.Dataset)
		}
		on := q.On
		if on == nil {
			on = &engine.QuerySpec{Kind: engine.QueryAllItems}
		}
		onV, err := naiveEval(cat, other, on)
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
		return nil, fmt.Errorf("naive: unknown kind %q", q.Kind)
	}
}

// testWorld is the shared fixture: a store-backed catalog plus the raw
// transactions the naive evaluator rescans.
type testWorld struct {
	store *store.Store
	raw   map[string]*dataset.Transactions
}

func (w *testWorld) entry(t *testing.T, name string) *store.Entry {
	t.Helper()
	e, err := w.store.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// clusteredRecords builds blocks of records where block b holds only items
// 8b..8b+7 — the shape item postings skip well.
func clusteredRecords(blocks int) [][]int32 {
	recs := make([][]int32, 0, blocks*dataset.BlockRecords+37)
	for b := 0; b < blocks; b++ {
		base := int32(b * 8)
		for i := 0; i < dataset.BlockRecords; i++ {
			rec := []int32{base, base + int32(i%8)} // i%8==0 duplicates the item
			if i%5 == 0 {
				rec = append(rec, base+1)
			}
			recs = append(recs, rec)
		}
	}
	// A partial tail block, so the short last storage block is exercised.
	for i := 0; i < 37; i++ {
		recs = append(recs, []int32{int32(blocks * 8), int32(blocks*8 + 1)})
	}
	return recs
}

// uniformRecords is the adversarial shape: item 0 occurs in every record and
// lengths are constant, so no sketch can skip a single block for a
// contains=[0] filter.
func uniformRecords(n int) [][]int32 {
	recs := make([][]int32, n)
	for i := range recs {
		recs[i] = []int32{0, int32(1 + i%15)}
	}
	return recs
}

// zipfRecords is the paper's shape in miniature: n records of 1–6 items
// drawn from a Zipf law over items 0..9, so every block holds the common
// items in many records and the rarer ones in a few. Item 10+b also sits in
// about one record in a hundred of block b alone, so posting lists are
// empty in every other block; items from 10 plus the block count up are
// absent.
func zipfRecords(n int) [][]int32 {
	r := rand.New(rand.NewSource(21))
	z := rand.NewZipf(r, 1.2, 1, 9)
	recs := make([][]int32, n)
	for i := range recs {
		rec := make([]int32, 1+r.Intn(6))
		for j := range rec {
			rec[j] = int32(z.Uint64())
		}
		if r.Intn(100) == 0 {
			rec[r.Intn(len(rec))] = int32(10 + i/dataset.BlockRecords)
		}
		recs[i] = rec
	}
	return recs
}

func newTestWorld(t *testing.T) *testWorld {
	t.Helper()
	w := &testWorld{store: store.New(), raw: map[string]*dataset.Transactions{}}
	add := func(name string, recs [][]int32, universe int) {
		db := dataset.New(name, recs)
		if universe > 0 {
			db = db.WithUniverse(universe)
		}
		if _, err := w.store.Register(name, "test", db); err != nil {
			t.Fatal(err)
		}
		w.raw[name] = db
	}
	add("main", [][]int32{
		{0, 1, 2}, {1, 2}, {2, 3, 4}, {0, 4}, {4, 4, 5},
		{5, 6, 7, 8}, {8}, {0, 8, 9}, {9, 1}, {2, 9},
	}, 16)
	add("other", [][]int32{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}}, 8)
	add("clustered", clusteredRecords(3), 0)
	add("uniform", uniformRecords(2*dataset.BlockRecords+100), 16)
	add("zipf", zipfRecords(3*dataset.BlockRecords+700), 24) // 3 full blocks, a partial tail, items 14 up absent
	t.Cleanup(func() { w.store.Close() })
	return w
}

func vecEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkDifferential resolves spec five ways — skipping on, skipping off
// (cache bypassed), then both again with the parallel scan path forced even
// on tiny datasets, and naive — and requires byte-identical vectors across
// the whole matrix.
func checkDifferential(t *testing.T, w *testWorld, ds string, spec *engine.QuerySpec) {
	t.Helper()
	if err := spec.Validate(); err != nil {
		t.Fatalf("spec failed validation: %v", err)
	}
	e := w.entry(t, ds)
	want, err := naiveEval(w.raw, w.raw[ds], spec)
	if err != nil {
		t.Fatal(err)
	}
	variants := []struct {
		name string
		opts Options
	}{
		{"skip", Options{}},
		{"noskip", Options{NoSkip: true, NoCache: true}},
		{"skip/parallel", Options{NoCache: true, Workers: 4, MinParallelRecords: -1}},
		{"noskip/parallel", Options{NoSkip: true, NoCache: true, Workers: 4, MinParallelRecords: -1}},
	}
	for _, v := range variants {
		got, err := Resolve(w.store, e, spec, v.opts)
		if err != nil {
			t.Fatalf("%s on %s (%s): %v", Canonical(spec), ds, v.name, err)
		}
		if !vecEqual(got.Answers, want) {
			t.Errorf("%s on %s: %s plan differs from naive\n got: %v\nwant: %v",
				Canonical(spec), ds, v.name, got.Answers, want)
		}
	}
}

func items(vs ...int32) []int32 { return vs }

func TestDifferentialHandwritten(t *testing.T) {
	w := newTestWorld(t)
	all := &engine.QuerySpec{Kind: engine.QueryAllItems}
	specs := []*engine.QuerySpec{
		all,
		{Kind: engine.QueryItemCount, Items: items(0, 2, 9, 100, -3)},
		{Kind: engine.QueryFilter, Where: &engine.RecordPredicate{Contains: items(2)}},
		{Kind: engine.QueryFilter, Where: &engine.RecordPredicate{Contains: items(0, 4), MinLen: 2}},
		{Kind: engine.QueryFilter, Where: &engine.RecordPredicate{MinLen: 3, MaxLen: 3}},
		{Kind: engine.QueryFilter, Where: &engine.RecordPredicate{MinLen: 9, MaxLen: 2}}, // empty range → zero
		{Kind: engine.QueryThreshold, MinCount: 3, Of: []*engine.QuerySpec{all}},
		{Kind: engine.QueryThreshold, MaxCount: 2, Of: []*engine.QuerySpec{all}},
		{Kind: engine.QueryThreshold, MinCount: 2, MaxCount: 3, Of: []*engine.QuerySpec{
			{Kind: engine.QueryFilter, Where: &engine.RecordPredicate{Contains: items(1)}},
		}},
		{Kind: engine.QueryUnion, Of: []*engine.QuerySpec{
			{Kind: engine.QueryItemCount, Items: items(1, 2)},
			{Kind: engine.QueryFilter, Where: &engine.RecordPredicate{Contains: items(8)}},
		}},
		{Kind: engine.QueryIntersect, Of: []*engine.QuerySpec{
			all,
			{Kind: engine.QueryItemCount, Items: items(0, 1, 2, 3)},
			{Kind: engine.QueryFilter, Where: &engine.RecordPredicate{MinLen: 2}},
		}},
		{Kind: engine.QueryMinus, Of: []*engine.QuerySpec{
			all,
			{Kind: engine.QueryItemCount, Items: items(4, 5)},
		}},
		{Kind: engine.QueryMinus, Of: []*engine.QuerySpec{all, all}}, // x minus x → zero
		{Kind: engine.QueryJoin, Dataset: "other", Of: []*engine.QuerySpec{all}},
		{Kind: engine.QueryJoin, Dataset: "other", Of: []*engine.QuerySpec{all},
			On: &engine.QuerySpec{Kind: engine.QueryItemCount, Items: items(1, 3)}},
		{Kind: engine.QueryUnion, Of: []*engine.QuerySpec{
			{Kind: engine.QueryMinus, Of: []*engine.QuerySpec{
				{Kind: engine.QueryFilter, Where: &engine.RecordPredicate{Contains: items(2)}},
				{Kind: engine.QueryItemCount, Items: items(3)},
			}},
			{Kind: engine.QueryThreshold, MinCount: 1, Of: []*engine.QuerySpec{
				{Kind: engine.QueryJoin, Dataset: "other", Of: []*engine.QuerySpec{all}},
			}},
		}},
	}
	for _, spec := range specs {
		checkDifferential(t, w, "main", spec)
		// Monotone specs must resolve as monotone (halved noise downstream);
		// rewrites may only widen the monotone fragment, never shrink it.
		if spec.Monotone() {
			res, err := Resolve(w.store, w.entry(t, "main"), spec, Options{NoCache: true})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Monotonic {
				t.Errorf("%s: spec is monotone but the plan is not", Canonical(spec))
			}
		}
	}
}

// genSpec builds a random valid spec over small universes; the generator is
// shared with the canonicalizer fuzz target.
func genSpec(r *rand.Rand, depth int) *engine.QuerySpec {
	kind := r.Intn(8)
	if depth <= 0 {
		kind = r.Intn(3) // leaves and filters only
	}
	switch kind {
	case 0:
		return &engine.QuerySpec{Kind: engine.QueryAllItems}
	case 1:
		n := 1 + r.Intn(4)
		its := make([]int32, n)
		for i := range its {
			its[i] = int32(r.Intn(24) - 2) // sometimes out of universe or negative
		}
		return &engine.QuerySpec{Kind: engine.QueryItemCount, Items: its}
	case 2:
		wh := &engine.RecordPredicate{}
		for len(wh.Contains) == 0 && wh.MinLen == 0 && wh.MaxLen == 0 {
			for i := 0; i < r.Intn(3); i++ {
				wh.Contains = append(wh.Contains, int32(r.Intn(16)))
			}
			wh.MinLen = r.Intn(4)
			wh.MaxLen = r.Intn(5)
		}
		return &engine.QuerySpec{Kind: engine.QueryFilter, Where: wh}
	case 3:
		q := &engine.QuerySpec{Kind: engine.QueryThreshold, Of: []*engine.QuerySpec{genSpec(r, depth-1)}}
		q.MinCount = float64(r.Intn(5))
		if q.MinCount == 0 || r.Intn(2) == 0 {
			q.MaxCount = float64(1 + r.Intn(6))
		}
		return q
	case 4, 5:
		k := engine.QueryUnion
		if kind == 5 {
			k = engine.QueryIntersect
		}
		n := 2 + r.Intn(2)
		of := make([]*engine.QuerySpec, n)
		for i := range of {
			of[i] = genSpec(r, depth-1)
		}
		return &engine.QuerySpec{Kind: k, Of: of}
	case 6:
		return &engine.QuerySpec{Kind: engine.QueryMinus,
			Of: []*engine.QuerySpec{genSpec(r, depth-1), genSpec(r, depth-1)}}
	default:
		q := &engine.QuerySpec{Kind: engine.QueryJoin, Dataset: "other",
			Of: []*engine.QuerySpec{genSpec(r, depth-1)}}
		if r.Intn(2) == 0 {
			q.On = genSpec(r, depth-1)
		}
		return q
	}
}

func TestDifferentialRandom(t *testing.T) {
	w := newTestWorld(t)
	r := rand.New(rand.NewSource(8))
	for i := 0; i < 400; i++ {
		spec := genSpec(r, 3)
		if err := spec.Validate(); err != nil {
			t.Fatalf("generator emitted an invalid spec %v: %v", spec, err)
		}
		checkDifferential(t, w, "main", spec)
		// The engine does not re-check resolved answers for NaN or ±Inf, so
		// every resolved vector must be finite, cached and NoCache alike.
		for _, opts := range []Options{{}, {NoCache: true}} {
			res, err := Resolve(w.store, w.entry(t, "main"), spec, opts)
			if err != nil {
				t.Fatal(err)
			}
			for j, a := range res.Answers {
				if math.IsNaN(a) || math.IsInf(a, 0) {
					t.Fatalf("%s (NoCache %v): answers[%d] = %v is not finite", Canonical(spec), opts.NoCache, j, a)
				}
			}
		}
	}
}

// TestDifferentialRandomZipf runs random specs over the Zipf-shaped
// dataset, whose full blocks the `contains` filters walk by their posting
// lists: the first filters naming an item build its lists as they scan,
// later ones walk them and skip the blocks where a list is empty, and
// filters on absent items skip everything. Every variant must match naive.
func TestDifferentialRandomZipf(t *testing.T) {
	w := newTestWorld(t)
	r := rand.New(rand.NewSource(23))
	for i := 0; i < 300; i++ {
		spec := genSpec(r, 2)
		if err := spec.Validate(); err != nil {
			t.Fatalf("generator emitted an invalid spec %v: %v", spec, err)
		}
		checkDifferential(t, w, "zipf", spec)
	}
	// Item 11 sits in block 1 alone and item 14 nowhere: their filters skip
	// every other full block, and every block, by their lists.
	e := w.entry(t, "zipf")
	for _, c := range []struct {
		item    int32
		skipped int
	}{{11, 2}, {14, 4}} {
		res, err := Resolve(w.store, e, filterSpec(0, 0, c.item), Options{NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.BlocksSkipped != c.skipped {
			t.Errorf("contains=[%d] skipped %d blocks, want %d", c.item, res.Stats.BlocksSkipped, c.skipped)
		}
	}
}

func TestSkippingClustered(t *testing.T) {
	w := newTestWorld(t)
	e := w.entry(t, "clustered")
	spec := &engine.QuerySpec{Kind: engine.QueryFilter, Where: &engine.RecordPredicate{Contains: items(20)}}

	res, err := Resolve(w.store, e, spec, Options{NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.BlocksSkipped < 2 {
		t.Errorf("selective filter skipped %d blocks, want >= 2", res.Stats.BlocksSkipped)
	}
	total := w.raw["clustered"].NumRecords()
	if res.Stats.RecordsScanned+res.Stats.RecordsSkipped != total {
		t.Errorf("scanned %d + skipped %d != %d records",
			res.Stats.RecordsScanned, res.Stats.RecordsSkipped, total)
	}
	if res.Stats.RecordsScanned >= total/2 {
		t.Errorf("selective filter scanned %d of %d records, skipping did nothing", res.Stats.RecordsScanned, total)
	}
	if e.RecordsSkipped() != uint64(res.Stats.RecordsSkipped) {
		t.Errorf("entry records_skipped=%d, stats say %d", e.RecordsSkipped(), res.Stats.RecordsSkipped)
	}
	checkDifferential(t, w, "clustered", spec)

	// A length-bounds-only filter skips via the min/max length zone columns.
	lenSpec := &engine.QuerySpec{Kind: engine.QueryFilter, Where: &engine.RecordPredicate{MinLen: 4}}
	lres, err := Resolve(w.store, e, lenSpec, Options{NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if lres.Stats.RecordsScanned != 0 {
		t.Errorf("min_len=4 filter scanned %d records of an all-short dataset", lres.Stats.RecordsScanned)
	}
	checkDifferential(t, w, "clustered", lenSpec)
}

// TestLengthTableServesFullBlocks pins what the record-length table saves:
// the first length-only filter over the Zipf dataset's 3 full blocks
// tallies them into the table and counts them as scanned, and the second,
// with another length range, reads them from the table and scans the
// partial tail alone. A generation pinned before an append sealed its tail
// block cannot read the table extended over that block, so it scans.
func TestLengthTableServesFullBlocks(t *testing.T) {
	w := newTestWorld(t)
	e := w.entry(t, "zipf")
	total, tail := w.raw["zipf"].NumRecords(), w.raw["zipf"].NumRecords()%dataset.BlockRecords
	for i, c := range []struct{ indexed, scanned int }{{0, total}, {total - tail, tail}} {
		res, err := Resolve(w.store, e, filterSpec(2+i, 0), Options{NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		if st := res.Stats; st.RecordsIndexed != c.indexed || st.RecordsScanned != c.scanned || res.Explain.RecordsIndexed != c.indexed {
			t.Errorf("resolution %d: indexed %d (explain %d), scanned %d; want %d, %d",
				i+1, st.RecordsIndexed, res.Explain.RecordsIndexed, st.RecordsScanned, c.indexed, c.scanned)
		}
		checkDifferential(t, w, "zipf", filterSpec(2+i, 0))
	}

	old := e.View()
	if _, err := w.store.Append("zipf", zipfRecords(dataset.BlockRecords)); err != nil {
		t.Fatal(err)
	}
	if _, err := Resolve(w.store, e, filterSpec(0, 3), Options{NoCache: true}); err != nil {
		t.Fatal(err)
	}
	spec := filterSpec(0, 3)
	want, err := naiveEval(nil, old.Dataset(), spec)
	if err != nil {
		t.Fatal(err)
	}
	c := &evalCtx{opts: Options{NoCache: true}, memo: map[string][]float64{}, views: map[*store.Entry]store.View{e: old}}
	if got := c.filterScan(e, normalize(spec)); !vecEqual(got, want) {
		t.Errorf("the pinned generation's scan = %v, want %v", got, want)
	}
	if st := c.stats; st.RecordsIndexed != 0 || st.RecordsScanned+st.RecordsSkipped != total {
		t.Errorf("pinned generation: indexed %d, scanned %d + skipped %d; want 0 and %d", st.RecordsIndexed, st.RecordsScanned, st.RecordsSkipped, total)
	}
}

// TestRecordsVisitedAlongPostings: a single-item filter that walks its
// posting lists visits fewer records than its blocks hold, while the scan
// that first builds the lists, and a scan under NoSkip, visit every record
// they scan. Reused, indexed, scanned and skipped still add up to the
// record count, and the explain payload carries the visited count.
func TestRecordsVisitedAlongPostings(t *testing.T) {
	w := newTestWorld(t)
	e := w.entry(t, "zipf")
	total := w.raw["zipf"].NumRecords()
	spec := filterSpec(0, 0, 4)
	for _, c := range []struct {
		name   string
		opts   Options
		walked bool
	}{
		{"build", Options{NoCache: true}, false},
		{"walk", Options{NoCache: true}, true},
		{"noskip", Options{NoCache: true, NoSkip: true}, false},
	} {
		res, err := Resolve(w.store, e, spec, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		st := res.Stats
		if st.RecordsReused+st.RecordsIndexed+st.RecordsScanned+st.RecordsSkipped != total {
			t.Errorf("%s: reused %d + indexed %d + scanned %d + skipped %d != %d records",
				c.name, st.RecordsReused, st.RecordsIndexed, st.RecordsScanned, st.RecordsSkipped, total)
		}
		if res.Explain.RecordsVisited != st.RecordsVisited {
			t.Errorf("%s: explain records_visited %d, stats %d", c.name, res.Explain.RecordsVisited, st.RecordsVisited)
		}
		if walked := st.RecordsVisited < st.RecordsScanned; walked != c.walked || st.RecordsVisited > st.RecordsScanned || st.RecordsVisited == 0 {
			t.Errorf("%s: visited %d of %d scanned records; want fewer: %v", c.name, st.RecordsVisited, st.RecordsScanned, c.walked)
		}
	}
	checkDifferential(t, w, "zipf", spec)
}

func TestAdversarialUnselective(t *testing.T) {
	w := newTestWorld(t)
	e := w.entry(t, "uniform")
	spec := &engine.QuerySpec{Kind: engine.QueryFilter, Where: &engine.RecordPredicate{Contains: items(0)}}
	res, err := Resolve(w.store, e, spec, Options{NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.BlocksSkipped != 0 || res.Stats.RecordsSkipped != 0 {
		t.Errorf("sketches skipped %d blocks of a dataset where every record matches", res.Stats.BlocksSkipped)
	}
	if res.Stats.RecordsScanned != w.raw["uniform"].NumRecords() {
		t.Errorf("scanned %d records, want all %d", res.Stats.RecordsScanned, w.raw["uniform"].NumRecords())
	}
	checkDifferential(t, w, "uniform", spec)
}

func TestPlanCache(t *testing.T) {
	w := newTestWorld(t)
	e := w.entry(t, "main")
	spec := &engine.QuerySpec{Kind: engine.QueryUnion, Of: []*engine.QuerySpec{
		{Kind: engine.QueryFilter, Where: &engine.RecordPredicate{Contains: items(2)}},
		{Kind: engine.QueryItemCount, Items: items(1)},
	}}

	cold, err := Resolve(w.store, e, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheHit {
		t.Fatal("first resolution reported a cache hit")
	}
	scans, resolutions := e.CountScans(), e.Resolutions()

	// Operand order swapped: canonicalization must land on the same entry.
	swapped := &engine.QuerySpec{Kind: engine.QueryUnion, Of: []*engine.QuerySpec{spec.Of[1], spec.Of[0]}}
	warm, err := Resolve(w.store, e, swapped, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit {
		t.Fatal("canonically equal spec missed the plan cache")
	}
	if !vecEqual(warm.Answers, cold.Answers) {
		t.Error("cached vector differs from the miss-time vector")
	}
	if e.CountScans() != scans {
		t.Errorf("cache hit moved count_scans from %d to %d", scans, e.CountScans())
	}
	if e.Resolutions() != resolutions+1 {
		t.Errorf("cache hit did not count as a resolution")
	}
	if warm.Explain == nil || !warm.Explain.Cached {
		t.Error("cache hit explain must be marked cached")
	}
	if warm.Explain.Canonical != Canonical(spec) {
		t.Errorf("replayed explain canonical %q, want %q", warm.Explain.Canonical, Canonical(spec))
	}
	if h, m := e.Plans().Hits(), e.Plans().Misses(); h != 1 || m != 1 {
		t.Errorf("plan cache hits=%d misses=%d, want 1 and 1", h, m)
	}
	if e.Plans().Len() == 0 {
		t.Error("plan cache is empty after a fill")
	}
}

func TestCanonicalEquivalences(t *testing.T) {
	all := func() *engine.QuerySpec { return &engine.QuerySpec{Kind: engine.QueryAllItems} }
	ic := func(vs ...int32) *engine.QuerySpec {
		return &engine.QuerySpec{Kind: engine.QueryItemCount, Items: vs}
	}
	equal := []struct {
		name string
		a, b *engine.QuerySpec
	}{
		{"union order",
			&engine.QuerySpec{Kind: engine.QueryUnion, Of: []*engine.QuerySpec{all(), ic(1)}},
			&engine.QuerySpec{Kind: engine.QueryUnion, Of: []*engine.QuerySpec{ic(1), all()}}},
		{"union dup",
			&engine.QuerySpec{Kind: engine.QueryUnion, Of: []*engine.QuerySpec{ic(1), ic(1), all()}},
			&engine.QuerySpec{Kind: engine.QueryUnion, Of: []*engine.QuerySpec{ic(1), all()}}},
		{"union flatten",
			&engine.QuerySpec{Kind: engine.QueryUnion, Of: []*engine.QuerySpec{
				&engine.QuerySpec{Kind: engine.QueryUnion, Of: []*engine.QuerySpec{ic(1), ic(2)}}, ic(3)}},
			&engine.QuerySpec{Kind: engine.QueryUnion, Of: []*engine.QuerySpec{ic(3), ic(2), ic(1)}}},
		{"items sorted dedup", ic(3, 1, 2, 1), ic(1, 2, 3)},
		{"singleton collapse",
			&engine.QuerySpec{Kind: engine.QueryUnion, Of: []*engine.QuerySpec{ic(1), ic(1)}},
			ic(1)},
		{"minus self is zero",
			&engine.QuerySpec{Kind: engine.QueryMinus, Of: []*engine.QuerySpec{all(), all()}},
			&engine.QuerySpec{Kind: engine.QueryFilter, Where: &engine.RecordPredicate{MinLen: 5, MaxLen: 2}}},
		{"union drops zero",
			&engine.QuerySpec{Kind: engine.QueryUnion, Of: []*engine.QuerySpec{
				all(),
				&engine.QuerySpec{Kind: engine.QueryFilter, Where: &engine.RecordPredicate{MinLen: 5, MaxLen: 2}}}},
			all()},
		{"intersect with zero is zero",
			&engine.QuerySpec{Kind: engine.QueryIntersect, Of: []*engine.QuerySpec{
				all(),
				&engine.QuerySpec{Kind: engine.QueryMinus, Of: []*engine.QuerySpec{ic(1), ic(1)}}}},
			&engine.QuerySpec{Kind: engine.QueryMinus, Of: []*engine.QuerySpec{all(), all()}}},
	}
	for _, tc := range equal {
		if ca, cb := Canonical(tc.a), Canonical(tc.b); ca != cb {
			t.Errorf("%s: canon %q != %q", tc.name, ca, cb)
		}
		if Hash(tc.a) != Hash(tc.b) {
			t.Errorf("%s: hashes differ for canonically equal specs", tc.name)
		}
	}
	distinct := []*engine.QuerySpec{
		all(), ic(1), ic(1, 2),
		{Kind: engine.QueryFilter, Where: &engine.RecordPredicate{Contains: items(1)}},
		{Kind: engine.QueryFilter, Where: &engine.RecordPredicate{Contains: items(1), MinLen: 1}},
		{Kind: engine.QueryThreshold, MinCount: 1, Of: []*engine.QuerySpec{all()}},
		{Kind: engine.QueryThreshold, MinCount: 1.5, Of: []*engine.QuerySpec{all()}},
		{Kind: engine.QueryUnion, Of: []*engine.QuerySpec{ic(1), all()}},
		{Kind: engine.QueryIntersect, Of: []*engine.QuerySpec{ic(1), all()}},
		{Kind: engine.QueryMinus, Of: []*engine.QuerySpec{ic(1), all()}},
		{Kind: engine.QueryMinus, Of: []*engine.QuerySpec{all(), ic(1)}},
		{Kind: engine.QueryJoin, Dataset: "other", Of: []*engine.QuerySpec{all()}},
		{Kind: engine.QueryJoin, Dataset: "third", Of: []*engine.QuerySpec{all()}},
	}
	seen := map[string]int{}
	for i, s := range distinct {
		c := Canonical(s)
		if j, dup := seen[c]; dup {
			t.Errorf("specs %d and %d collide on canon %q", i, j, c)
		}
		seen[c] = i
	}
}

func TestGreedyEvalOrder(t *testing.T) {
	// Canonical child order is by canon string (F… before I…); greedy order
	// must put the cheap cached leaf before the filter scan.
	spec := &engine.QuerySpec{Kind: engine.QueryIntersect, Of: []*engine.QuerySpec{
		{Kind: engine.QueryFilter, Where: &engine.RecordPredicate{Contains: items(3)}},
		{Kind: engine.QueryItemCount, Items: items(7)},
	}}
	n := normalize(spec)
	if len(n.children) != 2 || n.children[0].kind != engine.QueryFilter {
		t.Fatalf("unexpected canonical child order: %q", n.canon)
	}
	if n.order[0] != 1 || n.order[1] != 0 {
		t.Errorf("greedy order %v, want the leaf (index 1) first", n.order)
	}
	ne := explainNode(n)
	if len(ne.EvalOrder) != 2 || ne.EvalOrder[0] != 1 {
		t.Errorf("explain eval_order %v, want [1 0]", ne.EvalOrder)
	}

	// The short-circuit the order enables: an empty cheap support means the
	// filter never scans.
	w := newTestWorld(t)
	e := w.entry(t, "main")
	empty := &engine.QuerySpec{Kind: engine.QueryIntersect, Of: []*engine.QuerySpec{
		{Kind: engine.QueryFilter, Where: &engine.RecordPredicate{Contains: items(3)}},
		{Kind: engine.QueryItemCount, Items: items(14)}, // count 0 in "main"
	}}
	res, err := Resolve(w.store, e, empty, Options{NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.FilterScans != 0 {
		t.Errorf("intersect with an empty cheap support still ran %d filter scans", res.Stats.FilterScans)
	}
	checkDifferential(t, w, "main", empty)
}

func TestExplainPayload(t *testing.T) {
	w := newTestWorld(t)
	e := w.entry(t, "clustered")
	spec := &engine.QuerySpec{Kind: engine.QueryThreshold, MinCount: 10, Of: []*engine.QuerySpec{
		{Kind: engine.QueryFilter, Where: &engine.RecordPredicate{Contains: items(20)}},
	}}
	res, err := Resolve(w.store, e, spec, Options{NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	ex := res.Explain
	if ex == nil {
		t.Fatal("no explain payload")
	}
	if ex.Dataset != "clustered" || ex.Cached {
		t.Errorf("dataset=%q cached=%v, want clustered and false", ex.Dataset, ex.Cached)
	}
	if ex.Canonical != Canonical(spec) {
		t.Errorf("canonical %q != %q", ex.Canonical, Canonical(spec))
	}
	if want := fmt.Sprintf("%016x", Hash(spec)); ex.Hash != want {
		t.Errorf("hash %q, want %q", ex.Hash, want)
	}
	if ex.SketchBlocks == 0 || ex.RecordsTotal != w.raw["clustered"].NumRecords() {
		t.Errorf("sketch_blocks=%d records_total=%d", ex.SketchBlocks, ex.RecordsTotal)
	}
	if ex.RecordsSkipped == 0 || ex.RecordsScanned+ex.RecordsSkipped != ex.RecordsTotal {
		t.Errorf("explain scan accounting: scanned=%d skipped=%d total=%d",
			ex.RecordsScanned, ex.RecordsSkipped, ex.RecordsTotal)
	}
	if ex.Plan == nil || ex.Plan.Op != engine.QueryThreshold {
		t.Fatalf("plan root %+v, want a threshold node", ex.Plan)
	}
	if len(ex.Plan.Children) != 1 || ex.Plan.Children[0].Op != engine.QueryFilter {
		t.Errorf("plan child %+v, want the filter", ex.Plan.Children)
	}
	if ex.Plan.Children[0].CostRank < costFilter {
		t.Errorf("filter cost rank %d, want >= %d", ex.Plan.Children[0].CostRank, costFilter)
	}
}

func TestJoinErrors(t *testing.T) {
	w := newTestWorld(t)
	e := w.entry(t, "main")
	missing := &engine.QuerySpec{Kind: engine.QueryJoin, Dataset: "nope",
		Of: []*engine.QuerySpec{{Kind: engine.QueryAllItems}}}
	if _, err := Resolve(w.store, e, missing, Options{}); err == nil {
		t.Error("join against an unknown dataset resolved")
	}
	if _, err := Resolve(nil, e, missing, Options{}); !errors.Is(err, engine.ErrBadQuerySpec) {
		t.Errorf("nil catalog: got %v, want ErrBadQuerySpec", err)
	}
}

func TestPlanCacheEpochFlush(t *testing.T) {
	pc := newTestWorld(t).entry(t, "main").Plans()
	for i := 0; i < store.DefaultMaxPlans+10; i++ {
		pc.Put(fmt.Sprint("k", i), &store.PlanEntry{})
	}
	if pc.Len() > store.DefaultMaxPlans {
		t.Errorf("cache holds %d entries, cap is %d", pc.Len(), store.DefaultMaxPlans)
	}
	if pc.Len() == 0 {
		t.Error("cache empty after fills")
	}
	if got := pc.Flushes(); got != 1 {
		t.Errorf("Flushes = %d, want 1", got)
	}
}
