package plan

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"github.com/freegap/freegap/internal/dataset"
	"github.com/freegap/freegap/internal/engine"
	"github.com/freegap/freegap/internal/store"
)

// TestBlockStorageAppendSequences drives random append sequences whose
// sizes straddle the storage block edges through the store, and after every
// append requires the appended generation to be indistinguishable from
// dataset.New over the concatenated records: records, counts, length,
// serialised bytes, zone sketches and filter-scan results.
func TestBlockStorageAppendSequences(t *testing.T) {
	sizes := []int{0, 1, dataset.BlockRecords - 1, dataset.BlockRecords, dataset.BlockRecords + 1, 5000}
	r := rand.New(rand.NewSource(14))
	record := func() []int32 {
		rec := make([]int32, r.Intn(6)) // includes empty records
		for j := range rec {
			rec[j] = int32(r.Intn(40))
		}
		return rec
	}
	filters := []*engine.QuerySpec{
		{Kind: engine.QueryFilter, Where: &engine.RecordPredicate{Contains: items(3)}},
		{Kind: engine.QueryFilter, Where: &engine.RecordPredicate{Contains: items(1, 2), MinLen: 2}},
		{Kind: engine.QueryFilter, Where: &engine.RecordPredicate{MinLen: 4}},
		{Kind: engine.QueryFilter, Where: &engine.RecordPredicate{MaxLen: 1}},
		{Kind: engine.QueryFilter, Where: &engine.RecordPredicate{MinLen: 8}},
	}
	for trial := range sizes {
		var all [][]int32
		for i := sizes[trial]; i > 0; i-- {
			all = append(all, record())
		}
		s := store.New()
		e, err := s.Register("seq", "test", dataset.New("seq", all))
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 4; step++ {
			delta := make([][]int32, sizes[r.Intn(len(sizes))])
			for i := range delta {
				delta[i] = record()
			}
			if len(delta) > 0 {
				// Each delta opens with the only long record of its step,
				// holding items no other record has, so a block sketch or
				// scan that dropped a delta's first record would show.
				delta[0] = make([]int32, 9)
				for j := range delta[0] {
					delta[0][j] = int32(40 + 10*step + j)
				}
			}
			if _, err := s.Append("seq", delta); err != nil {
				t.Fatal(err)
			}
			all = append(all, delta...)
			want := dataset.New("seq", all)
			got := e.Dataset()
			if got.NumRecords() != want.NumRecords() || got.NumItems() != want.NumItems() {
				t.Fatalf("trial %d step %d: %d records, %d items; want %d, %d", trial, step,
					got.NumRecords(), got.NumItems(), want.NumRecords(), want.NumItems())
			}
			for i := 0; i < got.NumRecords(); i++ {
				rec := got.Record(i)
				if !reflect.DeepEqual(rec, want.Record(i)) || cap(rec) != len(rec) {
					t.Fatalf("trial %d step %d: record %d = %v (cap %d), want %v", trial, step, i, rec, cap(rec), want.Record(i))
				}
			}
			if !reflect.DeepEqual(got.ItemCounts(), want.ItemCounts()) || !vecEqual(e.ResolveAll(), want.ItemCounts()) {
				t.Fatalf("trial %d step %d: item counts diverged", trial, step)
			}
			if got.TotalLength() != want.TotalLength() {
				t.Fatalf("trial %d step %d: TotalLength %d, want %d", trial, step, got.TotalLength(), want.TotalLength())
			}
			var gotFIMI, wantFIMI bytes.Buffer
			if err := dataset.WriteFIMI(&gotFIMI, got); err != nil {
				t.Fatal(err)
			}
			if err := dataset.WriteFIMI(&wantFIMI, want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotFIMI.Bytes(), wantFIMI.Bytes()) {
				t.Fatalf("trial %d step %d: WriteFIMI bytes diverged", trial, step)
			}
			if !reflect.DeepEqual(e.Arena().Zones(), store.BuildZones(want)) {
				t.Fatalf("trial %d step %d: extended zone sketches differ from a from-scratch build", trial, step)
			}
			for _, spec := range filters {
				res, err := Resolve(s, e, spec, Options{NoCache: true})
				if err != nil {
					t.Fatal(err)
				}
				naive, err := naiveEval(nil, want, spec)
				if err != nil {
					t.Fatal(err)
				}
				if !vecEqual(res.Answers, naive) {
					t.Fatalf("trial %d step %d: %s = %v, want %v", trial, step, Canonical(spec), res.Answers, naive)
				}
			}
		}
	}
}

// TestListRecordsMatchesRecordScan pins the flat-pass list builder a first
// `contains` use runs per block against a record-by-record listing, on
// blocks whose item counts are not multiples of its eight-item stride, with
// empty records, repeated items within a record and items at both ends of
// the flat array.
func TestListRecordsMatchesRecordScan(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		recs := make([][]int32, 1+r.Intn(dataset.BlockRecords))
		for i := range recs {
			rec := make([]int32, r.Intn(12)) // includes empty records
			for j := range rec {
				rec[j] = int32(r.Intn(1 + trial%30))
			}
			recs[i] = rec
		}
		blk := dataset.New("t", recs).Block(0)
		for w := int32(0); w <= int32(trial%30)+1; w++ {
			var want []uint16
			for i, rec := range recs {
				for _, it := range rec {
					if it == w {
						want = append(want, uint16(i))
						break
					}
				}
			}
			if got := listRecords(blk.Items(), blk.Ends(), w); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d, item %d: listRecords = %v, want %v", trial, w, got, want)
			}
		}
	}
}
