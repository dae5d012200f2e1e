package plan

import (
	"runtime"
	"testing"

	"github.com/freegap/freegap/internal/dataset"
	"github.com/freegap/freegap/internal/engine"
	"github.com/freegap/freegap/internal/store"
)

// TestPlanCacheNeverServesSupersededGeneration races a cold composite
// resolution against an append. The resolution pins the pre-append
// generation as soon as its first filter scan starts; the append then
// installs the next generation while the remaining scans run. Whatever the
// interleaving, a later cached resolution must equal a cache-bypassing one:
// the racing resolution's vector describes the superseded generation and
// must never be served for the new one.
func TestPlanCacheNeverServesSupersededGeneration(t *testing.T) {
	recs := make([][]int32, 20_000)
	for i := range recs {
		recs[i] = []int32{int32(i % 7), int32(7 + i%11), int32(18 + i%13)}
	}
	s := store.New()
	e, err := s.Register("race", "test", dataset.New("race", recs))
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 20; round++ {
		// Seven full-dataset filter scans, distinct per round so each round
		// starts cache-cold.
		spec := &engine.QuerySpec{Kind: engine.QueryUnion}
		for k := int32(0); k < 7; k++ {
			spec.Of = append(spec.Of, &engine.QuerySpec{Kind: engine.QueryFilter,
				Where: &engine.RecordPredicate{Contains: items(k), MaxLen: 100 + round}})
		}
		scans := e.CountScans()
		done := make(chan error, 1)
		go func() {
			_, err := Resolve(s, e, spec, Options{})
			done <- err
		}()
		for e.CountScans() == scans && len(done) == 0 {
			runtime.Gosched() // wait until the resolution has pinned its generation
		}
		if _, err := s.Append("race", [][]int32{{0, 1, 2, 3, 4, 5, 6}}); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		cached, err := Resolve(s, e, spec, Options{})
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := Resolve(s, e, spec, Options{NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		if !vecEqual(cached.Answers, fresh.Answers) {
			t.Fatalf("round %d: the plan cache served a superseded generation's vector (cache hit %v)", round, cached.CacheHit)
		}
	}
}

// TestJoinSeesAppendsToTheOtherDataset resolves a join on one dataset, appends
// to the joined dataset, and resolves again: the second answer must reflect
// the append, exactly as a cache-bypassing resolution does.
func TestJoinSeesAppendsToTheOtherDataset(t *testing.T) {
	w := newTestWorld(t)
	e := w.entry(t, "main")
	spec := &engine.QuerySpec{Kind: engine.QueryJoin, Dataset: "other",
		On: &engine.QuerySpec{Kind: engine.QueryFilter, Where: &engine.RecordPredicate{Contains: items(5)}},
		Of: []*engine.QuerySpec{{Kind: engine.QueryAllItems}}}
	before, err := Resolve(w.store, e, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !emptySupport(before.Answers) {
		t.Fatalf("join before the append = %v, want all zero (other holds no item 5)", before.Answers)
	}
	if _, err := w.store.Append("other", [][]int32{{5, 6}}); err != nil {
		t.Fatal(err)
	}
	after, err := Resolve(w.store, e, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Resolve(w.store, e, spec, Options{NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if emptySupport(fresh.Answers) {
		t.Fatal("test premise broken: the append did not change the join")
	}
	if !vecEqual(after.Answers, fresh.Answers) {
		t.Errorf("join after appending to the other dataset = %v, want %v (cache hit %v)", after.Answers, fresh.Answers, after.CacheHit)
	}
}
