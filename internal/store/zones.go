package store

// Zone sketches for data skipping. Every storage block of a dataset
// (dataset.BlockRecords consecutive records) has a zone sketch: the min/max
// record length in the block. A filter query consults the sketches before
// touching a block — a length range outside [min,max] proves the block holds
// no matching record, and the whole block is skipped. Item predicates skip by
// the entry's exact item postings instead (postings.go). Sketches are built
// in the registration scan (the same O(records) pass that fills the count
// column) and kept in the arena. Like the storage blocks they describe, the
// sketches of full blocks are immutable and shared by every later
// generation: ExtendZones copies the sketch pointer list, copies the old
// partial tail block's sketch and extends it with the appended records
// (min/max length are monotone under adding records), and builds sketches
// for fresh blocks — it scans only the appended records.

import "github.com/freegap/freegap/internal/dataset"

// zoneSketch summarises one storage block, read-only once published.
type zoneSketch struct {
	minLen, maxLen uint32
}

// addRecords folds records [from, blk.Len()) of blk into the sketch.
func (s *zoneSketch) addRecords(blk *dataset.Block, from int) {
	for r := from; r < blk.Len(); r++ {
		n := uint32(len(blk.Record(r)))
		s.minLen = min(s.minLen, n)
		s.maxLen = max(s.maxLen, n)
	}
}

// Zones holds one dataset's per-block sketches, read-only by contract: entry
// b describes storage block b of the dataset it was built from.
type Zones struct {
	blocks []*zoneSketch
}

// BuildZones scans db once and returns one zone sketch per storage block.
func BuildZones(db *dataset.Transactions) *Zones {
	return ExtendZones(&Zones{}, db, 0)
}

// ExtendZones returns sketches covering db's full record list, given z built
// over the first oldRecords of it. Sketches of blocks that were already full
// are shared; the old partial tail block's sketch is copied and extended, and
// fresh blocks get new sketches — only records [oldRecords, NumRecords) are
// scanned, and the result equals a full rebuild.
func ExtendZones(z *Zones, db *dataset.Transactions, oldRecords int) *Zones {
	full := oldRecords / dataset.BlockRecords
	nz := &Zones{blocks: make([]*zoneSketch, db.NumBlocks())}
	copy(nz.blocks, z.blocks[:full])
	for b := full; b < len(nz.blocks); b++ {
		s := &zoneSketch{minLen: ^uint32(0)}
		from := 0
		if b < len(z.blocks) {
			*s = *z.blocks[b]
			from = oldRecords - b*dataset.BlockRecords
		}
		s.addRecords(db.Block(b), from)
		nz.blocks[b] = s
	}
	return nz
}

// NumBlocks returns the number of zone blocks, one per storage block.
func (z *Zones) NumBlocks() int { return len(z.blocks) }

// SkipBlock reports whether block b provably holds no record whose length
// lies in [minLen, maxLen] (maxLen 0 means unbounded). A false return proves
// nothing — the block must still be scanned.
func (z *Zones) SkipBlock(b int, minLen, maxLen int) bool {
	s := z.blocks[b]
	return int(s.maxLen) < minLen || (maxLen > 0 && int(s.minLen) > maxLen)
}
