package store

// Zone sketches for data skipping. Every storage block of a dataset
// (dataset.BlockRecords consecutive records) has a zone sketch: the min/max
// record length in the block plus a small bloom filter over the item ids the
// block's records contain. A filter query consults the sketches before
// touching a block — a length range outside [min,max], or a required item
// whose bloom probe misses, proves the block holds no matching record and the
// whole block is skipped. Sketches are built in the registration scan (the
// same O(records) pass that fills the count column) and kept in the arena.
// Like the storage blocks they describe, the sketches of full blocks are
// immutable and shared by every later generation: ExtendZones copies the
// sketch pointer list, copies the old partial tail block's sketch and
// extends it with the appended records (min/max length and bloom bits are
// monotone under adding records), and builds sketches for fresh blocks — it
// scans only the appended records.
//
// The bloom geometry is fixed: 512 bits (8 words) per block, two probes per
// item, both derived from one multiplicative hash — 72 bytes of sketch per
// 2048 records, under 0.05% of a typical transaction payload.

import "github.com/freegap/freegap/internal/dataset"

const (
	// zoneBloomWords is the bloom filter width per block, in 64-bit words.
	zoneBloomWords = 8
	zoneBloomBits  = zoneBloomWords * 64
)

// zoneSketch summarises one storage block, read-only once published.
type zoneSketch struct {
	minLen, maxLen uint32
	bloom          [zoneBloomWords]uint64
}

// addRecords folds records [from, blk.Len()) of blk into the sketch.
func (s *zoneSketch) addRecords(blk *dataset.Block, from int) {
	for r := from; r < blk.Len(); r++ {
		rec := blk.Record(r)
		n := uint32(len(rec))
		s.minLen = min(s.minLen, n)
		s.maxLen = max(s.maxLen, n)
		for _, item := range rec {
			w1, m1, w2, m2 := zoneProbes(item)
			s.bloom[w1] |= m1
			s.bloom[w2] |= m2
		}
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

// zoneProbes derives the two bloom probe positions for an item id from one
// Fibonacci-multiplicative hash: the top bits index one probe each.
func zoneProbes(item int32) (w1 int, m1 uint64, w2 int, m2 uint64) {
	h := uint64(uint32(item)+1) * 0x9E3779B97F4A7C15
	b1 := (h >> 55) & (zoneBloomBits - 1)
	b2 := (h >> 46) & (zoneBloomBits - 1)
	return int(b1 >> 6), 1 << (b1 & 63), int(b2 >> 6), 1 << (b2 & 63)
}

// NumBlocks returns the number of zone blocks, one per storage block.
func (z *Zones) NumBlocks() int { return len(z.blocks) }

// SkipBlock reports whether block b provably holds no record matching the
// predicate: the block's record lengths all fall outside [minLen, maxLen]
// (maxLen 0 means unbounded), or a required item's bloom probes miss. A
// false return proves nothing — the block must still be scanned.
func (z *Zones) SkipBlock(b int, contains []int32, minLen, maxLen int) bool {
	s := z.blocks[b]
	if int(s.maxLen) < minLen || (maxLen > 0 && int(s.minLen) > maxLen) {
		return true
	}
	for _, item := range contains {
		w1, m1, w2, m2 := zoneProbes(item)
		if s.bloom[w1]&m1 == 0 || s.bloom[w2]&m2 == 0 {
			return true
		}
	}
	return false
}
