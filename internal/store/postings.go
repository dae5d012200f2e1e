package store

// Item postings for `contains` filters. For each item a filter has named,
// the entry keeps, per full storage block holding the item, the ascending
// offsets of the block's records that hold it. A filter then reads, in each
// full block, only the records on the shortest list among its items, and
// skips a block where one of the lists is empty, exactly. (A lossy
// per-block item sketch cannot skip on the paper-shaped corpora: their
// blocks hold a few thousand distinct items each, which fill a 512-bit
// Bloom filter in every block.)
//
// Nothing is built at registration or at append time. The filter scan that
// first names an item lists the item's records in the blocks it reads
// anyway, and publishes the lists with ExtendPostings; a later scan extends
// them over the blocks appends have sealed since. Full blocks are immutable
// and shared by every generation of an entry, so one item's postings serve
// all of them, but a reader may use a list only for blocks that are full in
// its own View: a block a later append sealed is a different, partial block
// in an earlier generation, and its list indexes records that block does not
// hold. Items absent from a generation (its presence bitset) are skipped by
// the scan outright and get no entry, so the index holds at most one entry
// per present item that a filter has named. Its size is O(occurrences of
// those items): 2 bytes per record offset plus 8 bytes per (item, block
// holding it), so at most 10 bytes per occurrence and close to 2 for an
// item many records of a block hold, against the 4 bytes per occurrence of
// the dataset's own item arrays.

import "sync"

// Postings is one item's record postings over a prefix of a dataset's full
// storage blocks, read-only once published.
type Postings struct {
	covered int      // blocks [0, covered) are indexed, every one of them full
	blocks  []int32  // ascending ids of the indexed blocks holding the item
	ends    []uint32 // block blocks[i]'s offsets are offs[ends[i-1]:ends[i]], from 0
	offs    []uint16 // ascending record offsets within their block
}

// Covered returns how many leading storage blocks p indexes (0 for nil).
func (p *Postings) Covered() int {
	if p == nil {
		return 0
	}
	return p.covered
}

// Cursor returns a cursor over p's blocks, positioned before the first.
func (p *Postings) Cursor() PostingsCursor { return PostingsCursor{p: p} }

// PostingsCursor walks one item's postings in ascending block order.
type PostingsCursor struct {
	p *Postings
	i int
}

// Block returns the ascending offsets of block b's records holding the item
// (nil when none does). b must be below the postings' Covered count and at
// least the b of the cursor's previous call.
func (c *PostingsCursor) Block(b int) []uint16 {
	p := c.p
	for c.i < len(p.blocks) && int(p.blocks[c.i]) < b {
		c.i++
	}
	if c.i == len(p.blocks) || int(p.blocks[c.i]) != b {
		return nil
	}
	var start uint32
	if c.i > 0 {
		start = p.ends[c.i-1]
	}
	return p.offs[start:p.ends[c.i]]
}

// postingIndex maps item ids to their published postings; one per entry,
// shared by all of its generations.
type postingIndex struct {
	mu    sync.Mutex
	items map[int32]*Postings
}

// Postings returns the published postings of each of items, nil for an
// item that has none. Each covers a prefix of the full storage blocks:
// possibly blocks a later generation sealed that are partial in the
// caller's View, which it must not read.
func (e *Entry) Postings(items []int32) []*Postings {
	out := make([]*Postings, len(items))
	idx := &e.postings
	idx.mu.Lock()
	defer idx.mu.Unlock()
	for i, it := range items {
		out[i] = idx.items[it]
	}
	return out
}

// ExtendPostings publishes the postings of each of items extended by the
// lists a filter scan built: built[j][k] holds the ascending offsets of the
// records of full storage block lo+j that hold items[k]. ps[k] is the
// item's postings the scan started from, covering at least lo blocks; the
// blocks it already covers are not re-added. The extensions are built
// outside the lock, and each is installed only if it covers more blocks
// than what another resolution published meanwhile.
func (e *Entry) ExtendPostings(items []int32, ps []*Postings, lo int, built [][][]uint16) {
	next := make([]*Postings, len(items))
	for k, p := range ps {
		next[k] = p.extend(lo, lo+len(built), built, k)
	}
	idx := &e.postings
	idx.mu.Lock()
	defer idx.mu.Unlock()
	if idx.items == nil {
		idx.items = make(map[int32]*Postings)
	}
	for k, it := range items {
		if idx.items[it].Covered() < next[k].covered {
			idx.items[it] = next[k]
		}
	}
}

// extend returns postings covering blocks [0, full): p's, followed by the
// built lists of its item (built[j][k] for block lo+j) for the blocks from
// p's coverage on. p itself is never written.
func (p *Postings) extend(lo, full int, built [][][]uint16, k int) *Postings {
	from := p.Covered()
	if from >= full {
		return p
	}
	np := &Postings{covered: full}
	blocks, offs := 0, 0
	if p != nil {
		blocks, offs = len(p.blocks), len(p.offs)
	}
	for b := from; b < full; b++ {
		if l := built[b-lo][k]; len(l) > 0 {
			blocks++
			offs += len(l)
		}
	}
	np.blocks = make([]int32, 0, blocks)
	np.ends = make([]uint32, 0, blocks)
	np.offs = make([]uint16, 0, offs)
	if p != nil {
		np.blocks = append(np.blocks, p.blocks...)
		np.ends = append(np.ends, p.ends...)
		np.offs = append(np.offs, p.offs...)
	}
	for b := from; b < full; b++ {
		if l := built[b-lo][k]; len(l) > 0 {
			np.blocks = append(np.blocks, int32(b))
			np.offs = append(np.offs, l...)
			np.ends = append(np.ends, uint32(len(np.offs)))
		}
	}
	return np
}
