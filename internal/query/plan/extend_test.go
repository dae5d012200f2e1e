package plan

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/freegap/freegap/internal/dataset"
	"github.com/freegap/freegap/internal/engine"
	"github.com/freegap/freegap/internal/store"
)

func filterSpec(minLen, maxLen int, contains ...int32) *engine.QuerySpec {
	return &engine.QuerySpec{Kind: engine.QueryFilter,
		Where: &engine.RecordPredicate{Contains: contains, MinLen: minLen, MaxLen: maxLen}}
}

// TestFilterExtensionAppendSequences drives random append sequences whose
// deltas straddle the storage block edges and grow the item universe. At
// every step it resolves root filters, each extending the vector the plan
// cache holds from the last time it was resolved (possibly several appends
// ago), and composites over those filters, and requires the cached answers
// to equal cache-bypassing and naive ones byte for byte. An extension must
// scan or skip exactly the records appended since the reused vector and
// never count as a full scan.
func TestFilterExtensionAppendSequences(t *testing.T) {
	deltas := []int{0, 1, 31, dataset.BlockRecords - 1, dataset.BlockRecords, dataset.BlockRecords + 1}
	r := rand.New(rand.NewSource(15))
	universe := 40
	record := func() []int32 {
		rec := make([]int32, r.Intn(7)) // includes empty records
		for j := range rec {
			rec[j] = int32(r.Intn(universe))
		}
		return rec
	}
	filters := []*engine.QuerySpec{
		filterSpec(0, 0, 3),
		filterSpec(2, 0, 1, 2),
		filterSpec(4, 0),
		filterSpec(0, 1),
		filterSpec(0, 3, 5),
	}
	composites := []*engine.QuerySpec{
		{Kind: engine.QueryUnion, Of: []*engine.QuerySpec{filters[0], filters[2]}},
		{Kind: engine.QueryIntersect, Of: []*engine.QuerySpec{filters[1], filters[4]}},
		{Kind: engine.QueryMinus, Of: []*engine.QuerySpec{filters[2], filters[0]}},
		{Kind: engine.QueryThreshold, MinCount: 20, Of: []*engine.QuerySpec{filters[3]}},
	}
	serial := Options{}
	parallel := Options{Workers: 4, MinParallelRecords: -1}

	for trial, baseSize := range []int{0, dataset.BlockRecords - 1, 3000} {
		all := make([][]int32, baseSize)
		for i := range all {
			all[i] = record()
		}
		s := store.New()
		e, err := s.Register("seq", "test", dataset.New("seq", all))
		if err != nil {
			t.Fatal(err)
		}
		stamps := map[string]int{} // canonical filter → records its cached vector covers
		for step := 0; step < 8; step++ {
			if step > 0 {
				delta := make([][]int32, deltas[r.Intn(len(deltas))])
				for i := range delta {
					delta[i] = record()
				}
				if len(delta) > 0 {
					// A new item id grows the universe; the record matches
					// the contains filters and the min_len ones.
					delta[0] = []int32{1, 2, 3, 5, int32(universe)}
					universe++
				}
				if _, err := s.Append("seq", delta); err != nil {
					t.Fatal(err)
				}
				all = append(all, delta...)
			}
			want := dataset.New("seq", all)
			n := want.NumRecords()
			opts := serial
			if step%2 == 1 {
				opts = parallel
			}

			for i, f := range filters {
				canon := Canonical(f)
				stamp, cached := stamps[canon]
				if cached && r.Intn(2) == 0 && i != 0 {
					continue // let this filter's cached vector fall several appends behind
				}
				scans := e.CountScans()
				res, err := Resolve(s, e, f, opts)
				if err != nil {
					t.Fatal(err)
				}
				if e.CountScans() != scans && cached {
					t.Errorf("trial %d step %d: extending %s moved count_scans from %d to %d", trial, step, canon, scans, e.CountScans())
				}
				switch {
				case !cached:
				case stamp == n:
					if !res.CacheHit {
						t.Errorf("trial %d step %d: %s missed although no record was appended", trial, step, canon)
					}
				default:
					st := res.Stats
					if res.CacheHit || st.RecordsReused != stamp || res.Explain.ReusedRecords != stamp ||
						st.RecordsScanned+st.RecordsSkipped != n-stamp {
						t.Errorf("trial %d step %d: %s after %d appended records: hit %v, reused %d (explain %d), scanned %d + skipped %d; want a miss reusing %d records",
							trial, step, canon, n-stamp, res.CacheHit, st.RecordsReused, res.Explain.ReusedRecords,
							st.RecordsScanned, st.RecordsSkipped, stamp)
					}
				}
				stamps[canon] = n
				checkAgainstBypassAndNaive(t, s, e, want, f, res)
			}

			for _, c := range composites {
				scans := e.CountScans()
				res, err := Resolve(s, e, c, opts)
				if err != nil {
					t.Fatal(err)
				}
				if e.CountScans() != scans {
					t.Errorf("trial %d step %d: %s over root-cached filters moved count_scans from %d to %d",
						trial, step, Canonical(c), scans, e.CountScans())
				}
				minStamp := n
				for _, op := range c.Of {
					minStamp = min(minStamp, stamps[Canonical(op)])
				}
				if !res.CacheHit && minStamp > 0 && res.Stats.RecordsReused == 0 {
					t.Errorf("trial %d step %d: %s reused no cached filter vector", trial, step, Canonical(c))
				}
				checkAgainstBypassAndNaive(t, s, e, want, c, res)
			}
		}
	}
}

// checkAgainstBypassAndNaive requires res, a cached resolution of spec, to
// equal a cache-bypassing resolution (which must not reuse anything) and
// the naive evaluator over want, the same records built from scratch.
func checkAgainstBypassAndNaive(t *testing.T, s *store.Store, e *store.Entry, want *dataset.Transactions, spec *engine.QuerySpec, res *Result) {
	t.Helper()
	fresh, err := Resolve(s, e, spec, Options{NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Stats.RecordsReused != 0 {
		t.Errorf("%s: NoCache reused %d records", Canonical(spec), fresh.Stats.RecordsReused)
	}
	naive, err := naiveEval(nil, want, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !vecEqual(res.Answers, fresh.Answers) || !vecEqual(res.Answers, naive) {
		t.Fatalf("%s over %d records (hit %v, reused %d):\n cached: %v\n   fresh: %v\n   naive: %v",
			Canonical(spec), want.NumRecords(), res.CacheHit, res.Stats.RecordsReused, res.Answers, fresh.Answers, naive)
	}
}

// TestFilterExtensionRacesAppends resolves single filters concurrently with
// a stream of appends, each of which adds one new item id, so a count
// vector's length names the generation it describes. Every answer must be
// exactly the naive one for its generation, that generation must be no
// older than the one current when the resolution started (so no generation
// serves another's vector), and a resolution that extended a cached vector
// must have started from a real generation's record count. One resolver
// bypasses the cache, so it keeps walking and building item postings, and
// reading and extending the record-length table, while appends seal blocks;
// the records its table counted must be whole blocks full in the generation
// it served.
func TestFilterExtensionRacesAppends(t *testing.T) {
	const appends = 40
	r := rand.New(rand.NewSource(16))
	const baseUniverse = 20
	base := make([][]int32, 3000)
	for i := range base {
		rec := make([]int32, 1+r.Intn(5))
		for j := range rec {
			rec[j] = int32(r.Intn(baseUniverse))
		}
		base[i] = rec
	}
	base[0] = append(base[0], baseUniverse-1)
	chunks := make([][][]int32, appends)
	for k := range chunks {
		chunk := make([][]int32, 1+r.Intn(300))
		for i := range chunk {
			chunk[i] = base[r.Intn(len(base))]
		}
		chunk[0] = []int32{1, 3, int32(baseUniverse + k)}
		chunks[k] = chunk
	}
	filters := []*engine.QuerySpec{filterSpec(0, 0, 3), filterSpec(3, 0), filterSpec(0, 2), filterSpec(2, 0, 1)}

	// want[g][f] is filter f's naive answer over generation g (g appends).
	records := []int{len(base)}
	want := make([][][]float64, appends+1)
	all := append([][]int32(nil), base...)
	for g := 0; g <= appends; g++ {
		if g > 0 {
			all = append(all, chunks[g-1]...)
			records = append(records, len(all))
		}
		db := dataset.New("race", all)
		for _, f := range filters {
			v, err := naiveEval(nil, db, f)
			if err != nil {
				t.Fatal(err)
			}
			want[g] = append(want[g], v)
		}
	}
	generation := func(n int) int {
		for g, rn := range records {
			if rn == n {
				return g
			}
		}
		return -1
	}

	s := store.New()
	e, err := s.Register("race", "test", dataset.New("race", base))
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var resolved atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		opts := Options{}
		switch w {
		case 2:
			opts = Options{Workers: 4, MinParallelRecords: -1}
		case 3:
			// Scans every block each time, walking the posting lists of the
			// blocks they cover and building those of blocks appends seal.
			opts = Options{NoCache: true}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for fi, f := range filters {
					floor := generation(e.Dataset().NumRecords())
					res, err := Resolve(s, e, f, opts)
					if err != nil {
						t.Error(err)
						return
					}
					g := len(res.Answers) - baseUniverse
					if g < floor || g > appends {
						t.Errorf("%s: served generation %d's vector after generation %d was current", Canonical(f), g, floor)
						return
					}
					if !vecEqual(res.Answers, want[g][fi]) {
						t.Errorf("%s over generation %d (hit %v, reused %d): wrong answers", Canonical(f), g, res.CacheHit, res.Stats.RecordsReused)
						return
					}
					resolved.Add(1)
					if res.CacheHit {
						continue
					}
					st := res.Stats
					if m := st.RecordsReused; m > 0 && generation(m) < 0 {
						t.Errorf("%s over generation %d extended a vector covering %d records, no generation's count", Canonical(f), g, m)
						return
					}
					if st.RecordsReused+st.RecordsIndexed+st.RecordsScanned+st.RecordsSkipped != records[g] {
						t.Errorf("%s over generation %d: reused %d + indexed %d + scanned %d + skipped %d records, want %d",
							Canonical(f), g, st.RecordsReused, st.RecordsIndexed, st.RecordsScanned, st.RecordsSkipped, records[g])
						return
					}
					if x := st.RecordsIndexed; x%dataset.BlockRecords != 0 || x > records[g]/dataset.BlockRecords*dataset.BlockRecords {
						t.Errorf("%s over generation %d: indexed %d records, not whole blocks full in its %d records",
							Canonical(f), g, x, records[g])
						return
					}
				}
			}
		}()
	}
	for _, chunk := range chunks {
		// Let a few resolutions run against each generation, so appends
		// land while others are mid-scan.
		for target := resolved.Load() + 5; resolved.Load() < target && !t.Failed(); {
			runtime.Gosched()
		}
		if _, err := s.Append("race", chunk); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
}

// TestStaleViewIgnoresNewerPostings pins a generation whose last block is
// partial, lets a later append seal that block and a resolution build its
// posting list, then scans the pinned generation: the list indexes records
// the pinned block does not hold, so the scan must read that block's own
// records and use lists only for the blocks full in its view.
func TestStaleViewIgnoresNewerPostings(t *testing.T) {
	const item = 3
	recs := func(n, every int) [][]int32 {
		out := make([][]int32, n)
		for i := range out {
			out[i] = []int32{int32(i % 7)}
			if i%every == 0 {
				out[i] = append(out[i], item, 9)
			}
		}
		return out
	}
	base := recs(dataset.BlockRecords+1500, 5)
	s := store.New()
	e, err := s.Register("stale", "test", dataset.New("stale", base))
	if err != nil {
		t.Fatal(err)
	}
	old := e.View()
	if _, err := s.Append("stale", recs(1000, 2)); err != nil {
		t.Fatal(err)
	}
	spec := filterSpec(0, 0, item)
	if _, err := Resolve(s, e, spec, Options{NoCache: true}); err != nil {
		t.Fatal(err)
	}
	if p := e.Postings([]int32{item})[0]; p.Covered() < 2 {
		t.Fatalf("postings cover %d blocks after the append sealed block 1, want 2", p.Covered())
	}
	want, err := naiveEval(nil, old.Dataset(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{{NoCache: true}, {NoCache: true, Workers: 4, MinParallelRecords: -1}} {
		c := &evalCtx{opts: opts, memo: map[string][]float64{}, views: map[*store.Entry]store.View{e: old}}
		if got := c.filterScan(e, normalize(spec)); !vecEqual(got, want) {
			t.Errorf("workers %d: the pinned generation's scan = %v, want %v", opts.Workers, got, want)
		}
		if st := c.stats; st.RecordsScanned+st.RecordsSkipped != old.Dataset().NumRecords() {
			t.Errorf("workers %d: scanned %d + skipped %d records, want %d", opts.Workers, st.RecordsScanned, st.RecordsSkipped, old.Dataset().NumRecords())
		}
	}
}

// TestPostingsBuildStopsAtAGap pins that a scan builds an item's lists
// only for the full blocks from the first one its postings miss that it
// reads in a row. A block skipped by its length range, or one before a
// carried vector's end, leaves a gap the scan does not read, and postings
// must cover a prefix of the blocks: the scan stops building there, and a
// later scan that reads the blocks finishes the lists.
func TestPostingsBuildStopsAtAGap(t *testing.T) {
	const item = 4
	block := func(length int) [][]int32 {
		recs := make([][]int32, dataset.BlockRecords)
		for i := range recs {
			recs[i] = make([]int32, length)
			for j := range recs[i] {
				recs[i][j] = int32((i + j) % 9)
			}
		}
		return recs
	}
	// Block 1 holds only short records, so a min_len=3 filter skips it by
	// its length range; the tail is partial.
	var base [][]int32
	for _, l := range []int{5, 2, 5, 4} {
		base = append(base, block(l)...)
	}
	base = append(base, block(5)[:100]...)
	s := store.New()
	e, err := s.Register("gap", "test", dataset.New("gap", base))
	if err != nil {
		t.Fatal(err)
	}
	covered := func(it int32) int { return e.Postings([]int32{it})[0].Covered() }
	check := func(spec *engine.QuerySpec, opts Options, wantCovered int) {
		t.Helper()
		res, err := Resolve(s, e, spec, opts)
		if err != nil {
			t.Fatal(err)
		}
		naive, err := naiveEval(nil, e.Dataset(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if !vecEqual(res.Answers, naive) {
			t.Fatalf("%s = %v, want %v", Canonical(spec), res.Answers, naive)
		}
		if got := covered(spec.Where.Contains[0]); got != wantCovered {
			t.Fatalf("after %s: postings cover %d blocks, want %d", Canonical(spec), got, wantCovered)
		}
	}
	check(filterSpec(3, 0, item), Options{NoCache: true}, 1) // block 1 skipped: stop after block 0
	check(filterSpec(0, 0, item), Options{NoCache: true}, 4) // walk block 0, build 1–3
	check(filterSpec(0, 0, item), Options{NoCache: true}, 4)

	// An item the base lacks: its cached all-zero vector carries over
	// appends that add it, and extending that vector reads only the blocks
	// after its end, so the lists of the earlier blocks stay unbuilt.
	const late = 30
	spec := filterSpec(0, 0, late)
	check(spec, Options{}, 0)
	grow := block(3)
	for i := range grow {
		grow[i] = append(grow[i], late)
	}
	if _, err := s.Append("gap", grow); err != nil {
		t.Fatal(err)
	}
	check(spec, Options{}, 0)
	check(spec, Options{NoCache: true}, 5)
}
