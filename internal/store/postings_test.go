package store_test

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/freegap/freegap/internal/dataset"
	"github.com/freegap/freegap/internal/engine"
	"github.com/freegap/freegap/internal/query/plan"
	"github.com/freegap/freegap/internal/store"
)

// TestItemPostingsMatchRecount drives an append sequence whose deltas seal
// blocks partway through and resolves `contains` filters after every step,
// which builds the items' postings on first use and extends them over the
// blocks sealed since. After every step, each item's postings must list,
// for every block full in the current view, exactly the records a
// from-scratch recount of that block finds. The views of earlier steps are
// kept: their full blocks are shared, so the lists must stay right for them
// too, while a block still partial in an old view may be covered by lists a
// newer generation built, which index records that old block does not hold.
func TestItemPostingsMatchRecount(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	record := func() []int32 {
		rec := make([]int32, 1+r.Intn(5))
		for j := range rec {
			rec[j] = int32(r.Intn(12)) // repeats inside a record included
		}
		return rec
	}
	records := func(n int) [][]int32 {
		out := make([][]int32, n)
		for i := range out {
			out[i] = record()
		}
		return out
	}
	s := store.New()
	e, err := s.Register("p", "test", dataset.New("p", records(dataset.BlockRecords-300)))
	if err != nil {
		t.Fatal(err)
	}
	items := []int32{0, 5, 11, 40} // 40 is never present
	filters := []*engine.QuerySpec{filter(0), filter(5, 11), filter(11), filter(40)}
	deltas := []int{500, 1, dataset.BlockRecords - 1, dataset.BlockRecords, 3000, 0, 700, dataset.BlockRecords + 1}
	var views []store.View
	staleSeen := false
	for step, n := range deltas {
		if _, err := s.Append("p", records(n)); err != nil {
			t.Fatal(err)
		}
		for i, f := range filters {
			opts := plan.Options{NoCache: step%2 == 0} // odd steps extend carried vectors
			if i == step%len(filters) {
				opts.Workers, opts.MinParallelRecords = 4, -1
			}
			if _, err := plan.Resolve(s, e, f, opts); err != nil {
				t.Fatal(err)
			}
		}
		views = append(views, e.View())
		for vi, v := range views {
			staleSeen = checkPostings(t, e, v, items, vi == len(views)-1) || staleSeen
		}
	}
	if !staleSeen {
		t.Error("no old view's partial block was covered by a newer generation's lists; the sequence misses the stale case")
	}
}

func filter(items ...int32) *engine.QuerySpec {
	return &engine.QuerySpec{Kind: engine.QueryFilter, Where: &engine.RecordPredicate{Contains: items}}
}

// checkPostings compares each item's published postings with a recount of
// every block full in v. current says v is the newest view, which the last
// resolutions covered in full. It reports whether the postings cover v's
// partial tail block with a list that indexes past its records.
func checkPostings(t *testing.T, e *store.Entry, v store.View, items []int32, current bool) (stale bool) {
	t.Helper()
	db := v.Dataset()
	full := db.NumRecords() / dataset.BlockRecords
	for k, p := range e.Postings(items) {
		it := items[k]
		if !v.Arena().Has(it) {
			if p != nil {
				t.Errorf("absent item %d has postings", it)
			}
			continue
		}
		if current && p.Covered() != full {
			t.Errorf("%d records: item %d's postings cover %d blocks, want %d", db.NumRecords(), it, p.Covered(), full)
		}
		cur := p.Cursor()
		for b := 0; b < min(full, p.Covered()); b++ {
			var want []uint16
			blk := db.Block(b)
			for i := 0; i < blk.Len(); i++ {
				if slices.Contains(blk.Record(i), it) {
					want = append(want, uint16(i))
				}
			}
			if got := cur.Block(b); !slices.Equal(got, want) {
				t.Fatalf("%d records: item %d block %d: postings %v, recount %v", db.NumRecords(), it, b, got, want)
			}
		}
		if tail := full; tail < db.NumBlocks() && p.Covered() > tail {
			l := cur.Block(tail)
			stale = stale || (len(l) > 0 && int(l[len(l)-1]) >= db.Block(tail).Len())
		}
	}
	return stale
}
