package store

import (
	"errors"
	"fmt"
	"reflect"
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
	records := make([][]int32, 300)
	for i := range records {
		records[i] = []int32{int32(i % 7), int32(i % 31), int32(i % 64)}
	}
	base := dataset.New("zones", records[:130])
	z := BuildZones(base, 64)

	delta := records[130:]
	grown := base.AppendRecords(delta)
	got := ExtendZones(z, grown, base.NumRecords())
	want := BuildZones(grown, 64)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ExtendZones diverged from a from-scratch build:\n got %+v\nwant %+v", got, want)
	}
	// The shared prefix blocks must not be rescanned state — they are copied
	// — and the original sketches must be untouched.
	if !reflect.DeepEqual(z, BuildZones(base, 64)) {
		t.Error("ExtendZones mutated the old generation's sketches")
	}
}

func TestPlanCacheSecondChanceSweep(t *testing.T) {
	var c PlanCache
	for i := 0; i < DefaultMaxPlans; i++ {
		c.Put(fmt.Sprintf("k%d", i), &PlanEntry{})
	}
	if got := c.Len(); got != DefaultMaxPlans {
		t.Fatalf("Len = %d, want %d", got, DefaultMaxPlans)
	}
	// Touch a working set; the capacity sweep must keep it.
	for i := 0; i < 10; i++ {
		if _, ok := c.Get(fmt.Sprintf("k%d", i)); !ok {
			t.Fatalf("k%d missing before sweep", i)
		}
	}
	c.Put("overflow", &PlanEntry{})
	if got := c.Flushes(); got != 1 {
		t.Errorf("Flushes = %d, want 1", got)
	}
	if got := c.Len(); got != 11 {
		t.Errorf("Len after sweep = %d, want 11 (10 hot survivors + the new entry)", got)
	}
	for i := 0; i < 10; i++ {
		if _, ok := c.Get(fmt.Sprintf("k%d", i)); !ok {
			t.Errorf("hot entry k%d evicted by the sweep", i)
		}
	}
	if _, ok := c.Get("k200"); ok {
		t.Error("cold entry survived the sweep")
	}

	// The protected set is capped: a sweep with everything hot must not keep
	// the whole generation (that would just defer the same wholesale flush).
	var full PlanCache
	for i := 0; i < DefaultMaxPlans; i++ {
		key := fmt.Sprintf("k%d", i)
		full.Put(key, &PlanEntry{})
	}
	for i := 0; i < DefaultMaxPlans; i++ {
		full.Get(fmt.Sprintf("k%d", i))
	}
	full.Put("overflow", &PlanEntry{})
	if got := full.Len(); got != maxProtectedPlans+1 {
		t.Errorf("Len after all-hot sweep = %d, want %d", got, maxProtectedPlans+1)
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
