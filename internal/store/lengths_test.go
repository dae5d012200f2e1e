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

// lengthRanges are the [min_len, max_len] ranges the length-table tests
// read (max_len 0 is unbounded), reaching past the longest record.
var lengthRanges = [][2]int{{0, 0}, {1, 0}, {0, 1}, {2, 3}, {3, 0}, {4, 4}, {5, 0}, {6, 40}, {41, 0}, {60, 0}}

// TestLengthCountsMatchRecount drives an append sequence whose deltas seal
// blocks partway through, grow the item universe and, once, add a record
// longer than any before it, and extends the record-length table after
// every step. The table must then cover exactly the current view's full
// blocks, and every length range read from it plus the blocks after it
// must equal a naive count over the view's records. The views of earlier
// steps are kept: one whose full blocks are exactly the table's reads it
// too, even a table a later generation built over a wider universe, and
// one with fewer full blocks than the table covers gets no table, so its
// filters scan.
func TestLengthCountsMatchRecount(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	universe := 12
	record := func() []int32 {
		rec := make([]int32, r.Intn(7)) // empty records and repeated items included
		for j := range rec {
			rec[j] = int32(r.Intn(universe))
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
	e, err := s.Register("l", "test", dataset.New("l", records(dataset.BlockRecords-300)))
	if err != nil {
		t.Fatal(err)
	}
	if tbl, _ := e.LengthCounts(e.View()); tbl != nil {
		t.Fatalf("a dataset with no full block has a table covering %d blocks", tbl.Covered())
	}
	deltas := []int{500, 1, dataset.BlockRecords - 1, dataset.BlockRecords, 3000, 0, 700, dataset.BlockRecords + 1}
	var views []store.View
	olderSeen := false
	for step, n := range deltas {
		delta := records(n)
		if n > 0 {
			delta[0] = []int32{int32(universe), 0, 0} // a new item id, repeated slots
			universe++
		}
		if step == 4 {
			long := make([]int32, 40) // longer than any record before
			for j := range long {
				long[j] = int32(j % universe)
			}
			delta[len(delta)-1] = long
		}
		if _, err := s.Append("l", delta); err != nil {
			t.Fatal(err)
		}
		cur := e.View()
		full := cur.Dataset().NumRecords() / dataset.BlockRecords
		tbl, counted := e.LengthCounts(cur)
		if tbl.Covered() != full || counted > full {
			t.Fatalf("step %d: table covers %d blocks (%d counted before), want %d", step, tbl.Covered(), counted, full)
		}
		views = append(views, cur)
		for vi, v := range views {
			vfull := v.Dataset().NumRecords() / dataset.BlockRecords
			tbl, _ := e.LengthCounts(v)
			switch {
			case vfull < full && vfull > 0:
				olderSeen = true
				if tbl != nil {
					t.Fatalf("step %d view %d: a view with %d full blocks read a table covering %d", step, vi, vfull, tbl.Covered())
				}
			case tbl.Covered() != vfull:
				t.Fatalf("step %d view %d: table covers %d blocks, want the view's %d", step, vi, tbl.Covered(), vfull)
			}
			checkLengthTable(t, v, tbl)
		}
	}
	if !olderSeen {
		t.Error("no older view had fewer full blocks than the table; the sequence misses the stale case")
	}

	// A later generation with one more item extends the table over an
	// older view's full blocks; that view reads the wider table.
	n := e.Dataset().NumRecords()
	if _, err := s.Append("l", records(2*dataset.BlockRecords-n%dataset.BlockRecords)); err != nil {
		t.Fatal(err)
	}
	old := e.View()
	if _, err := s.Append("l", [][]int32{{int32(universe + 3), 1}}); err != nil {
		t.Fatal(err)
	}
	if tbl, counted := e.LengthCounts(e.View()); counted >= tbl.Covered() {
		t.Fatalf("the newer view extended nothing: table covers %d blocks, %d counted before", tbl.Covered(), counted)
	}
	tbl, _ := e.LengthCounts(old)
	if want := old.Dataset().NumRecords() / dataset.BlockRecords; tbl.Covered() != want {
		t.Fatalf("older view: table covers %d blocks, want %d", tbl.Covered(), want)
	}
	checkLengthTable(t, old, tbl)
}

// checkLengthTable compares, for every length range, the table's rows (nil
// reads nothing) plus a count of v's records after the blocks it covers
// with a count of all of v's records.
func checkLengthTable(t *testing.T, v store.View, tbl *store.LengthCounts) {
	t.Helper()
	db := v.Dataset()
	for _, lr := range lengthRanges {
		got := recount(db, tbl.Covered()*dataset.BlockRecords, lr)
		if tbl != nil {
			tbl.AddRange(got, lr[0], lr[1])
		}
		if want := recount(db, 0, lr); !slices.Equal(got, want) {
			t.Fatalf("%d records, len %v: table + tail = %v, recount %v", db.NumRecords(), lr, got, want)
		}
	}
}

// recount counts, per item, db's records from index from on whose length
// lies in lr, once per record.
func recount(db *dataset.Transactions, from int, lr [2]int) []float64 {
	out := make([]float64, db.NumItems())
	for i := from; i < db.NumRecords(); i++ {
		rec := db.Record(i)
		if len(rec) < lr[0] || (lr[1] > 0 && len(rec) > lr[1]) {
			continue
		}
		for j, it := range rec {
			if !slices.Contains(rec[:j], it) {
				out[it]++
			}
		}
	}
	return out
}

// TestLengthCountsSizeBound pins the size bound: a table over some blocks
// needs (longest record + 1) × universe counters, at most the blocks' item
// occurrences. A dataset whose first full block holds one record too long
// for that gets no table, and one whose table an append would have to
// widen past the bound keeps the table it has. Either way length-only
// filters match a recount, and the records no table covers are scanned or
// skipped.
func TestLengthCountsSizeBound(t *testing.T) {
	short := func(n int) [][]int32 {
		recs := make([][]int32, n)
		for i := range recs {
			recs[i] = []int32{int32(i % 50), int32(i % 7)} // universe 50, 2 slots a record
		}
		return recs
	}
	long := make([]int32, 300) // 301 rows × 50 items > two blocks' 8,490 item slots
	for j := range long {
		long[j] = int32(j % 50)
	}
	check := func(e *store.Entry, s *store.Store, wantIndexed int) {
		t.Helper()
		db := e.Dataset()
		for _, lr := range lengthRanges {
			spec := &engine.QuerySpec{Kind: engine.QueryFilter, Where: &engine.RecordPredicate{MinLen: lr[0], MaxLen: lr[1]}}
			if lr[1] > 0 && lr[0] > lr[1] {
				continue
			}
			res, err := plan.Resolve(s, e, spec, plan.Options{NoCache: true})
			if err != nil {
				t.Fatal(err)
			}
			if want := recount(db, 0, lr); !slices.Equal(res.Answers, want) {
				t.Fatalf("len %v: %v, recount %v", lr, res.Answers, want)
			}
			st := res.Stats
			if st.RecordsIndexed != wantIndexed || st.RecordsIndexed+st.RecordsScanned+st.RecordsSkipped != db.NumRecords() {
				t.Fatalf("len %v: indexed %d + scanned %d + skipped %d records, want %d indexed of %d",
					lr, st.RecordsIndexed, st.RecordsScanned, st.RecordsSkipped, wantIndexed, db.NumRecords())
			}
		}
	}

	s := store.New()
	recs := short(2*dataset.BlockRecords + 10)
	recs[5] = long
	e, err := s.Register("over", "test", dataset.New("over", recs))
	if err != nil {
		t.Fatal(err)
	}
	if tbl, _ := e.LengthCounts(e.View()); tbl != nil {
		t.Fatalf("a dataset past the bound has a table covering %d blocks", tbl.Covered())
	}
	check(e, s, 0)

	// One short full block gets a table; an append sealing a second block
	// holding the long record would push it past the bound, so the table
	// stays at one block and the second is scanned.
	e, err = s.Register("grow", "test", dataset.New("grow", short(dataset.BlockRecords+10)))
	if err != nil {
		t.Fatal(err)
	}
	if tbl, _ := e.LengthCounts(e.View()); tbl.Covered() != 1 {
		t.Fatalf("one short full block: table covers %d blocks, want 1", tbl.Covered())
	}
	delta := short(dataset.BlockRecords)
	delta[0] = long
	if _, err := s.Append("grow", delta); err != nil {
		t.Fatal(err)
	}
	if tbl, counted := e.LengthCounts(e.View()); tbl.Covered() != 1 || counted != 1 {
		t.Fatalf("past the bound: table covers %d blocks (%d counted), want the old one", tbl.Covered(), counted)
	}
	check(e, s, dataset.BlockRecords)
}
