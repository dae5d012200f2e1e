package store

// Columnar dataset arenas. Each catalogued dataset's item-count vector lives
// in one flat arena indexed densely by item id, together with the sketches
// the resolve path consults without touching the counts: a presence bitset
// (one bit per item id, set iff the item occurs in any transaction) plus
// min/max/nonzero summaries built in the same pass that fills the counts,
// and the per-block zone sketches filter scans skip by. The registration
// scan builds the arena — the dataset's one full count scan — and every
// append extends it from the delta alone.

import "slices"

// Arena is one dataset's columnar count storage plus its sketches,
// read-only by contract.
type Arena struct {
	counts  []float64
	present []uint64
	min     float64 // smallest non-zero count; 0 when every count is zero
	max     float64
	nonzero int
	zones   *Zones // per-block skipping sketches covering every record
}

// newArena builds an arena around a freshly built count vector, taking
// ownership of it, and derives the presence bitset and min/max/nonzero
// summaries in one pass.
func newArena(counts []float64) *Arena {
	a := &Arena{counts: counts, present: make([]uint64, (len(counts)+63)/64)}
	for i, c := range counts {
		if c == 0 {
			continue
		}
		a.present[i/64] |= 1 << (i % 64)
		if a.nonzero == 0 || c < a.min {
			a.min = c
		}
		if c > a.max {
			a.max = c
		}
		a.nonzero++
	}
	return a
}

// extendArena builds the arena of an appended dataset generation over an
// item universe of items: a copy of the old counts column with every delta
// record folded in (one per distinct item it holds), and the presence bitset
// and min/max/nonzero sketches rebuilt in one O(items) vector pass. The
// transactions are never rescanned. Every delta item id must lie in
// [0, items). The caller attaches the extended zone sketches.
func extendArena(old *Arena, delta [][]int32, items int) *Arena {
	counts := make([]float64, items)
	copy(counts, old.counts)
	var rec []int32 // one sorted copy of the record at a time, for dedup
	for _, r := range delta {
		rec = append(rec[:0], r...)
		slices.Sort(rec)
		for i, it := range rec {
			if i == 0 || it != rec[i-1] {
				counts[it]++
			}
		}
	}
	return newArena(counts)
}

// Counts returns the dense item-count column (read-only by contract).
func (a *Arena) Counts() []float64 { return a.counts }

// Has reports whether item occurs in the dataset, answered from the presence
// bitset without touching the counts column.
func (a *Arena) Has(item int32) bool {
	if item < 0 || int(item) >= len(a.counts) {
		return false
	}
	return a.present[int(item)/64]&(1<<(uint(item)%64)) != 0
}

// MinCount returns the smallest non-zero count (0 when all counts are zero).
func (a *Arena) MinCount() float64 { return a.min }

// MaxCount returns the largest count.
func (a *Arena) MaxCount() float64 { return a.max }

// NonzeroItems returns how many items have a non-zero count.
func (a *Arena) NonzeroItems() int { return a.nonzero }

// Zones returns the arena's zone sketches, which cover every record.
func (a *Arena) Zones() *Zones { return a.zones }
