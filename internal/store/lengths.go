package store

// Record-length count tables for length-only filters. A filter with no
// `contains` item (say {"min_len": 8}) counts, per item, the records whose
// length lies in a range, and no posting list narrows which records those
// are. The entry keeps one table over a prefix of its full storage blocks:
// for each record length l and item i, the number of the covered records of
// length l that hold i, once per record however often it repeats i (as the
// count column counts). Length is the record's item slots, duplicates
// included, as filter scans read it. A length-only filter adds the table's
// rows over its length range and scans only the blocks after the table.
//
// Nothing is built at registration or at append time. The first length-only
// filter whose View has more full blocks than the table covers tallies the
// blocks it misses into a new table (the old rows, widened if the universe
// or the longest record grew, plus the new blocks) and publishes it unless
// another resolution published one covering as many meanwhile. Full blocks
// are immutable and shared by every generation of an entry, so one table
// serves all of them, but, as with postings, a reader may use it only when
// every block it covers is full in its own View.
//
// Size bound: a table over some blocks holds (longest record + 1) × universe
// counters, and is built only when that is at most the item occurrences of
// those blocks. So it is never larger than the item arrays it summarises,
// and adding its rows never costs more than the scan it replaces. Where the
// bound fails there is no table (one very long record does it), and the
// filter scans.

import "github.com/freegap/freegap/internal/dataset"

// LengthCounts is a record-length count table over a prefix of a dataset's
// full storage blocks, read-only once published.
type LengthCounts struct {
	covered int      // blocks [0, covered) are counted, every one of them full
	rows    int      // lengths 0 .. rows-1: the covered blocks' longest record + 1
	width   int      // item columns: the universe of the generation that built it
	counts  []uint32 // counts[l*width+i]: covered records of length l holding item i
}

// Covered returns how many leading storage blocks t counts (0 for nil).
func (t *LengthCounts) Covered() int {
	if t == nil {
		return 0
	}
	return t.covered
}

// AddRange adds to out[i], for every item i, the covered records whose
// length lies in [minLen, maxLen] (maxLen 0 means unbounded) that hold i.
// out spans a generation's universe, which holds every item of the covered
// blocks, so it may be wider or narrower than the table: the columns one
// has and the other lacks count no covered record.
func (t *LengthCounts) AddRange(out []float64, minLen, maxLen int) {
	hi := t.rows - 1
	if maxLen > 0 {
		hi = min(hi, maxLen)
	}
	w := min(t.width, len(out))
	out = out[:w]
	for l := minLen; l <= hi; l++ {
		for i, c := range t.counts[l*t.width : l*t.width+w] {
			out[i] += float64(c)
		}
	}
}

// LengthCounts returns the record-length table covering exactly the full
// storage blocks of v, and how many of them the published table already
// counted: this call tallied the rest and published the extension. It
// returns the published table with its own coverage when the size bound
// rules the extension out, and nil when there is no table v may read: none
// fits the bound, or the published one covers blocks partial in v.
func (e *Entry) LengthCounts(v View) (t *LengthCounts, counted int) {
	full := v.db.NumRecords() / dataset.BlockRecords
	t = e.lengths.Load()
	counted = t.Covered()
	if counted > full {
		return nil, 0 // a later generation sealed blocks partial in v
	}
	if counted == full {
		return t, counted
	}
	next := extendLengths(t, v, full)
	if next == nil {
		return t, counted
	}
	for {
		cur := e.lengths.Load()
		if cur.Covered() >= full || e.lengths.CompareAndSwap(cur, next) {
			return next, counted
		}
	}
}

// extendLengths returns a table covering v's first full blocks: t's rows
// plus a tally of the blocks from t's coverage on. It returns nil when the
// size bound fails. t itself is never written.
func extendLengths(t *LengthCounts, v View, full int) *LengthCounts {
	longest, occurrences := 0, 0
	for b := 0; b < full; b++ {
		longest = max(longest, int(v.arena.zones.blocks[b].maxLen))
		occurrences += len(v.db.Block(b).Items())
	}
	width := len(v.arena.counts)
	if (longest+1)*width > occurrences {
		return nil
	}
	next := &LengthCounts{covered: full, rows: longest + 1, width: width, counts: make([]uint32, (longest+1)*width)}
	if t != nil {
		for l := 0; l < t.rows; l++ {
			copy(next.counts[l*width:], t.counts[l*t.width:(l+1)*t.width])
		}
	}
	stamps := make([]int32, width) // per-record distinct-item marks, as filter scans keep
	var stamp int32
	for b := t.Covered(); b < full; b++ {
		blk := v.db.Block(b)
		items := blk.Items()
		var start uint32
		for _, end := range blk.Ends() {
			rec := items[start:end]
			start = end
			row := next.counts[len(rec)*width : (len(rec)+1)*width]
			stamp++
			for _, it := range rec {
				if stamps[it] != stamp {
					stamps[it] = stamp
					row[it]++
				}
			}
		}
	}
	return next
}
