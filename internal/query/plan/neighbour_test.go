package plan

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/freegap/freegap/internal/dataset"
	"github.com/freegap/freegap/internal/store"
)

// TestMonotoneFragmentNeighbouringDatasets is a neighbouring-dataset oracle
// for every plan the compiler marks monotone. The halved noise scale the
// mechanisms use for monotone query lists is sound only if adding one record
// moves each answer up by at most one and never down (and removing one moves
// each down by at most one). Random specs resolved on the test world's
// "main" dataset D are compared with their resolution on D plus one record
// (empty, with a repeated item, past the universe, and others) and on D
// minus each of its records in turn.
func TestMonotoneFragmentNeighbouringDatasets(t *testing.T) {
	w := newTestWorld(t)
	d := w.raw["main"]
	neighbour := func(name string, db *dataset.Transactions) *store.Entry {
		e, err := w.store.Register(name, "test", db)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	// Each pair is (larger, smaller): larger = smaller plus one record.
	type pair struct {
		name            string
		larger, smaller *store.Entry
	}
	dEntry := w.entry(t, "main")
	var pairs []pair
	for i, rec := range [][]int32{
		{},                             // empty record
		{2, 2},                         // repeated item
		{20},                           // item past the universe
		{3, 20, 20},                    // grows the universe with a repeat
		{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, // long record
		{4},                            // single item
		{0, 8, 15},                     // the universe's last item
	} {
		name := fmt.Sprintf("add%d", i)
		pairs = append(pairs, pair{fmt.Sprintf("D+%v", rec), neighbour(name, d.AddRecord(rec)), dEntry})
	}
	for i := 0; i < d.NumRecords(); i++ {
		name := fmt.Sprintf("del%d", i)
		pairs = append(pairs, pair{fmt.Sprintf("D-record%d", i), dEntry, neighbour(name, d.RemoveRecord(i))})
	}

	r := rand.New(rand.NewSource(19))
	monotone := 0
	for i := 0; i < 2000; i++ {
		spec := genSpec(r, 3)
		base, err := Resolve(w.store, dEntry, spec, Options{NoCache: true})
		if err != nil {
			t.Fatalf("%s: %v", Canonical(spec), err)
		}
		if !base.Monotonic {
			continue
		}
		monotone++
		for _, p := range pairs {
			big, err := Resolve(w.store, p.larger, spec, Options{NoCache: true})
			if err != nil {
				t.Fatalf("%s on %s: %v", Canonical(spec), p.name, err)
			}
			small, err := Resolve(w.store, p.smaller, spec, Options{NoCache: true})
			if err != nil {
				t.Fatalf("%s on %s: %v", Canonical(spec), p.name, err)
			}
			n := max(len(big.Answers), len(small.Answers))
			for item := 0; item < n; item++ {
				if diff := at(big.Answers, item) - at(small.Answers, item); diff < 0 || diff > 1 {
					t.Errorf("%s is marked monotone, but on %s item %d moves by %v (want 0..1)",
						Canonical(spec), p.name, item, diff)
					break
				}
			}
		}
	}
	if monotone < 500 {
		t.Errorf("only %d of 2000 specs resolved monotone; the oracle covers too little", monotone)
	}
}

// at reads v[i], treating items past the vector's universe as zero.
func at(v []float64, i int) float64 {
	if i < len(v) {
		return v[i]
	}
	return 0
}
