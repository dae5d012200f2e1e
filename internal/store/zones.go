package store

// Zone sketches for data skipping. At registration the store cuts a
// dataset's transaction list into fixed-size blocks of consecutive records
// and summarises each block with a zone sketch: the min/max record length in
// the block plus a small bloom filter over the item ids the block's records
// contain. A filter query consults the sketches before touching a block —
// a length range outside [min,max], or a required item whose bloom probe
// misses, proves the block holds no matching record and the whole block is
// skipped. Sketches are built in the registration scan (the same O(records)
// pass that fills the count column) and kept in the arena; an append extends
// them with ExtendZones, which scans only the appended records — block
// sketches are monotone under adding records, so the shared prefix is
// copied, never rebuilt.
//
// The bloom geometry is fixed: 512 bits (8 words) per block, two probes per
// item, both derived from one multiplicative hash. With the default 2048
// records per block the sketch overhead is 72 bytes per 2048 records —
// under 0.05% of a typical transaction payload.

import "github.com/freegap/freegap/internal/dataset"

const (
	// DefaultZoneBlock is the number of consecutive records summarised by
	// one zone sketch.
	DefaultZoneBlock = 2048
	// zoneBloomWords is the bloom filter width per block, in 64-bit words.
	zoneBloomWords = 8
	zoneBloomBits  = zoneBloomWords * 64
)

// Zones holds one dataset's per-block sketches, read-only by contract.
type Zones struct {
	block   int // records per block
	records int // total records covered
	minLen  []uint32
	maxLen  []uint32
	bloom   []uint64 // NumBlocks * zoneBloomWords words
}

// BuildZones scans db once and returns its zone sketches with block records
// per zone. A nil or empty dataset returns zero blocks.
func BuildZones(db *dataset.Transactions, block int) *Zones {
	if block <= 0 {
		block = DefaultZoneBlock
	}
	records := db.NumRecords()
	blocks := (records + block - 1) / block
	z := &Zones{
		block:   block,
		records: records,
		minLen:  make([]uint32, blocks),
		maxLen:  make([]uint32, blocks),
		bloom:   make([]uint64, blocks*zoneBloomWords),
	}
	for b := 0; b < blocks; b++ {
		lo, hi := z.BlockRange(b)
		minLen, maxLen := ^uint32(0), uint32(0)
		words := z.bloom[b*zoneBloomWords : (b+1)*zoneBloomWords]
		for r := lo; r < hi; r++ {
			rec := db.Record(r)
			if n := uint32(len(rec)); n < minLen {
				minLen = n
			}
			if n := uint32(len(rec)); n > maxLen {
				maxLen = n
			}
			for _, item := range rec {
				w1, m1, w2, m2 := zoneProbes(item)
				words[w1] |= m1
				words[w2] |= m2
			}
		}
		z.minLen[b], z.maxLen[b] = minLen, maxLen
	}
	return z
}

// ExtendZones returns sketches covering db's full record list, given z built
// over the first oldRecords of it. Untouched whole blocks are copied; the
// trailing partial block (if any) and the fresh blocks are updated by
// scanning only records [oldRecords, NumRecords) — min/max length and bloom
// bits are monotone under adding records, so extending in place on a copy is
// exactly equivalent to a full rebuild. A nil z (no sketches to extend)
// falls back to BuildZones.
func ExtendZones(z *Zones, db *dataset.Transactions, oldRecords int) *Zones {
	if z == nil || z.block <= 0 {
		return BuildZones(db, DefaultZoneBlock)
	}
	records := db.NumRecords()
	blocks := (records + z.block - 1) / z.block
	nz := &Zones{
		block:   z.block,
		records: records,
		minLen:  make([]uint32, blocks),
		maxLen:  make([]uint32, blocks),
		bloom:   make([]uint64, blocks*zoneBloomWords),
	}
	copy(nz.minLen, z.minLen)
	copy(nz.maxLen, z.maxLen)
	copy(nz.bloom, z.bloom)
	for b := z.NumBlocks(); b < blocks; b++ {
		nz.minLen[b] = ^uint32(0) // BuildZones' empty-block sentinel
	}
	for r := oldRecords; r < records; r++ {
		b := r / nz.block
		rec := db.Record(r)
		if n := uint32(len(rec)); n < nz.minLen[b] {
			nz.minLen[b] = n
		}
		if n := uint32(len(rec)); n > nz.maxLen[b] {
			nz.maxLen[b] = n
		}
		words := nz.bloom[b*zoneBloomWords : (b+1)*zoneBloomWords]
		for _, item := range rec {
			w1, m1, w2, m2 := zoneProbes(item)
			words[w1] |= m1
			words[w2] |= m2
		}
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

// NumBlocks returns the number of zone blocks.
func (z *Zones) NumBlocks() int {
	if z == nil {
		return 0
	}
	return len(z.minLen)
}

// Block returns the block size in records.
func (z *Zones) Block() int { return z.block }

// BlockRange returns block b's record range [lo, hi).
func (z *Zones) BlockRange(b int) (lo, hi int) {
	lo = b * z.block
	hi = lo + z.block
	if hi > z.records {
		hi = z.records
	}
	return lo, hi
}

// SkipBlock reports whether block b provably holds no record matching the
// predicate: the block's record lengths all fall outside [minLen, maxLen]
// (maxLen 0 means unbounded), or a required item's bloom probes miss. A
// false return proves nothing — the block must still be scanned.
func (z *Zones) SkipBlock(b int, contains []int32, minLen, maxLen int) bool {
	if int(z.maxLen[b]) < minLen || (maxLen > 0 && int(z.minLen[b]) > maxLen) {
		return true
	}
	words := z.bloom[b*zoneBloomWords : (b+1)*zoneBloomWords]
	for _, item := range contains {
		w1, m1, w2, m2 := zoneProbes(item)
		if words[w1]&m1 == 0 || words[w2]&m2 == 0 {
			return true
		}
	}
	return false
}
