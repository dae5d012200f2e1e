package store

import (
	"errors"
	"reflect"
	"slices"
	"sync"
	"testing"

	"github.com/freegap/freegap/internal/dataset"
)

func TestAppendExtendsDerivedStateIncrementally(t *testing.T) {
	s := New()
	base := testDB(t)
	e, err := s.Register("sales", "test", base)
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	delta := [][]int32{{0, 3}, {3, 3, 4}, {2}}
	if _, err := s.Append("sales", delta); err != nil {
		t.Fatalf("Append: %v", err)
	}

	// The appended state must equal a from-scratch build over the combined
	// records...
	combined := base.AppendRecords(delta)
	want := combined.ItemCounts()
	if got := e.ResolveAll(); !reflect.DeepEqual(got, want) {
		t.Errorf("ResolveAll after append = %v, want %v", got, want)
	}
	// ...without ever rescanning the pre-append records: the only full scan
	// on record is the registration-time materialisation.
	if got := e.CountScans(); got != 1 {
		t.Errorf("CountScans after append = %d, want 1 (append must be delta-maintained)", got)
	}

	info := e.Info()
	if info.Records != combined.NumRecords() {
		t.Errorf("Records = %d, want %d", info.Records, combined.NumRecords())
	}
	if info.Items != combined.NumItems() {
		t.Errorf("Items = %d, want %d (delta grew the universe)", info.Items, combined.NumItems())
	}
	if got, want := info.MeanLength, combined.MeanLength(); got != want {
		t.Errorf("MeanLength = %v, want %v", got, want)
	}

	// The arena sketches must describe the appended counts.
	a := e.Arena()
	if !a.Has(4) {
		t.Error("presence bitset missed the newly appended item 4")
	}
	if got, want := a.MaxCount(), maxOf(want); got != want {
		t.Errorf("MaxCount = %v, want %v", got, want)
	}
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func TestAppendValidation(t *testing.T) {
	s := NewWithLimits(Limits{MaxRecords: 6, MaxItems: 8})
	if _, err := s.Register("sales", "test", testDB(t)); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if _, err := s.Append("nope", [][]int32{{0}}); !errors.Is(err, ErrUnknownDataset) {
		t.Errorf("append to unknown dataset: err = %v, want ErrUnknownDataset", err)
	}
	if _, err := s.PrepareAppend("sales", [][]int32{{-1}}); err == nil {
		t.Error("negative item id admitted")
	}
	if _, err := s.PrepareAppend("sales", [][]int32{{0}, {1}, {2}}); err == nil {
		t.Error("append past MaxRecords admitted")
	}
	if _, err := s.PrepareAppend("sales", [][]int32{{8}}); err == nil {
		t.Error("append past MaxItems admitted")
	}
	ok := [][]int32{{7}, {0, 1}}
	if _, err := s.PrepareAppend("sales", ok); err != nil {
		t.Errorf("PrepareAppend(valid delta): %v", err)
	}
	if _, err := s.Append("sales", ok); err != nil {
		t.Errorf("Append(valid delta): %v", err)
	}
	// A rejected append must leave the dataset untouched.
	if _, err := s.Append("sales", [][]int32{{0}}); err == nil {
		t.Error("append past MaxRecords admitted by Append")
	}
	e, _ := s.Get("sales")
	if got := e.Info().Records; got != 6 {
		t.Errorf("Records after rejected append = %d, want 6", got)
	}
}

func TestAppendFlushesPlanCache(t *testing.T) {
	s := New()
	e, err := s.Register("sales", "test", testDB(t))
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	e.Plans().Put("q", &PlanEntry{Answers: []float64{1}})
	if _, ok := e.Plans().Get("q"); !ok {
		t.Fatal("plan not cached")
	}
	if _, err := s.Append("sales", [][]int32{{0}}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if _, ok := e.Plans().Get("q"); ok {
		t.Error("append served a stale compiled plan: the cache must be flushed")
	}
}

func TestExtendZonesMatchesFromScratchBuild(t *testing.T) {
	records := make([][]int32, 2*dataset.BlockRecords+900)
	for i := range records {
		records[i] = make([]int32, 1+i%5) // lengths vary inside every block
		for j := range records[i] {
			records[i][j] = int32((i*7 + j*31) % 97)
		}
	}
	// Split points on, just before and just after the block edges. The first
	// appended record is the only long one, so a sketch that missed it would
	// show in its block's length range.
	long := make([]int32, 40)
	for j := range long {
		long[j] = int32(100 + j)
	}
	for _, split := range []int{0, 1, 130, dataset.BlockRecords - 1, dataset.BlockRecords,
		dataset.BlockRecords + 1, 2 * dataset.BlockRecords, len(records)} {
		base := dataset.New("zones", records[:split])
		z := BuildZones(base)
		delta := slices.Clone(records[split:])
		if len(delta) > 0 {
			delta[0] = long
		}
		grown := base.AppendRecords(delta)
		got := ExtendZones(z, grown, base.NumRecords())
		if want := BuildZones(grown); !reflect.DeepEqual(got, want) {
			t.Errorf("split %d: ExtendZones diverged from a from-scratch build", split)
		}
		// Full blocks' sketches are shared, not copied, and the original
		// sketches must be untouched.
		for b := 0; b < split/dataset.BlockRecords; b++ {
			if got.blocks[b] != z.blocks[b] {
				t.Errorf("split %d: the sketch of full block %d was copied, not shared", split, b)
			}
		}
		if !reflect.DeepEqual(z, BuildZones(base)) {
			t.Errorf("split %d: ExtendZones mutated the old generation's sketches", split)
		}
	}
}

func TestAppendConcurrentWithReaders(t *testing.T) {
	s := New()
	e, err := s.Register("sales", "test", testDB(t))
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := e.View()
				counts := v.Arena().Counts()
				// A generation view must be internally consistent: the counts
				// slice always matches the view's own dataset universe.
				if len(counts) != v.Dataset().NumItems() {
					t.Error("torn view: counts universe != dataset universe")
					return
				}
				e.ResolveAll()
			}
		}()
	}
	for i := 0; i < 200; i++ {
		if _, err := s.Append("sales", [][]int32{{0, 1, 2}, {int32(i % 50)}}); err != nil {
			t.Errorf("Append #%d: %v", i, err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if got, want := e.Info().Records, 4+400; got != want {
		t.Errorf("Records = %d, want %d", got, want)
	}
}

// TestPreparesFromOneBaseKeepEveryGenerationIntact prepares two appends
// against one base generation concurrently, installs the first, and
// re-prepares the second as a losing appender does. Every generation
// involved — the base, the installed one, the stale one and the re-prepared
// one — must keep exactly its own records: a prepare copies the base's
// partial tail block instead of extending it in place.
func TestPreparesFromOneBaseKeepEveryGenerationIntact(t *testing.T) {
	recs := make([][]int32, dataset.BlockRecords+100) // a 100-record partial tail
	for i := range recs {
		recs[i] = []int32{int32(i % 13), int32(i % 5)}
	}
	s := New()
	e, err := s.Register("twin", "test", dataset.New("twin", recs))
	if err != nil {
		t.Fatal(err)
	}
	base := e.Dataset()
	d1 := [][]int32{{1, 2}, {3}}
	d2 := [][]int32{{7, 8, 9}, {10}, {11}}
	var p1, p2 *PendingAppend
	var err1, err2 error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); p1, err1 = s.PrepareAppend("twin", d1) }()
	go func() { defer wg.Done(); p2, err2 = s.PrepareAppend("twin", d2) }()
	wg.Wait()
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if _, err := s.InstallAppend(p1); err != nil {
		t.Fatal(err)
	}
	installed := e.Dataset()
	if _, err := s.InstallAppend(p2); !errors.Is(err, ErrStaleAppend) {
		t.Fatalf("installing the second prepare: err = %v, want ErrStaleAppend", err)
	}
	stale := p2.next.db
	if p2, err = s.PrepareAppend("twin", d2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.InstallAppend(p2); err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct {
		name string
		db   *dataset.Transactions
		want [][]int32
	}{
		{"base", base, recs},
		{"installed", installed, slices.Concat(recs, d1)},
		{"stale", stale, slices.Concat(recs, d2)},
		{"re-prepared", e.Dataset(), slices.Concat(recs, d1, d2)},
	} {
		if g.db.NumRecords() != len(g.want) {
			t.Fatalf("%s generation holds %d records, want %d", g.name, g.db.NumRecords(), len(g.want))
		}
		for i, rec := range g.want {
			if got := g.db.Record(i); !slices.Equal(got, rec) {
				t.Fatalf("%s generation record %d = %v, want %v", g.name, i, got, rec)
			}
		}
	}
}
