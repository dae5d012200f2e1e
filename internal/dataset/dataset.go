package dataset

import (
	"fmt"
	"math"
	"sort"

	"github.com/freegap/freegap/internal/rng"
)

// BlockRecords is the number of consecutive records one storage block holds.
// Every block of a database except the last is full, so record i sits at
// offset i%BlockRecords of block i/BlockRecords. The store's zone sketches and
// the filter scan's work units are cut along the same blocks.
const BlockRecords = 2048

// Block is an immutable run of up to BlockRecords consecutive records, stored
// flat: every record's items back to back plus each record's end offset.
// Database generations share their full blocks, so no block reachable from a
// published database is ever written again — an append copies a partial tail
// block before extending it.
type Block struct {
	items []int32
	ends  []uint32 // ends[i] is the offset in items one past record i
}

// Len returns the number of records in the block.
func (b *Block) Len() int { return len(b.ends) }

// Record returns the block's i-th record. Its capacity equals its length, so
// a caller's append copies instead of overwriting the next record. The slice
// must not be modified.
func (b *Block) Record(i int) []int32 {
	var start uint32
	if i > 0 {
		start = b.ends[i-1]
	}
	end := b.ends[i]
	return b.items[start:end:end]
}

// Items returns every record's items back to back and Ends each record's end
// offset into them, for scanners that walk a block without per-record calls:
// record i is Items()[Ends()[i-1]:Ends()[i]], starting at 0. Both slices are
// read-only by contract.
func (b *Block) Items() []int32 { return b.items }

// Ends returns each record's end offset into Items (see Items).
func (b *Block) Ends() []uint32 { return b.ends }

// extend returns a new block holding b's records followed by recs, sized
// exactly; b is never modified.
func (b *Block) extend(recs [][]int32) *Block {
	n := len(b.items)
	for _, r := range recs {
		n += len(r)
	}
	if uint64(n) > math.MaxUint32 {
		panic(fmt.Sprintf("dataset: block of %d records would hold %d items, past the uint32 offset range", len(b.ends)+len(recs), n))
	}
	nb := &Block{
		items: append(make([]int32, 0, n), b.items...),
		ends:  append(make([]uint32, 0, len(b.ends)+len(recs)), b.ends...),
	}
	for _, r := range recs {
		nb.items = append(nb.items, r...)
		nb.ends = append(nb.ends, uint32(len(nb.items)))
	}
	return nb
}

// Transactions is a transaction database: each element is one record, the set
// of item identifiers that appear in that record. Item identifiers are small
// non-negative integers; duplicates within a record are ignored by the
// counting logic. Records are stored in immutable Blocks of BlockRecords.
type Transactions struct {
	name    string
	blocks  []*Block
	records int
	items   int // number of distinct item ids, i.e. max id + 1
}

// New builds a Transactions database from raw records, copying them into
// blocks. The number of distinct items is inferred from the largest item id
// present; a negative id panics. The name is carried through to reports and
// tables.
func New(name string, records [][]int32) *Transactions {
	return (&Transactions{name: name}).AppendRecords(records)
}

// WithUniverse returns a view of the database whose item universe is padded
// to at least items (ids beyond any observed item simply count zero). The
// records are shared, not copied. Synthetic generators declare universes
// larger than the ids their transactions happen to contain; a serialisation
// round trip through the FIMI text format re-infers the universe from the
// observed ids alone, and this restores the declared size so counting-query
// workloads keep their exact shape.
func (t *Transactions) WithUniverse(items int) *Transactions {
	if items <= t.items {
		return t
	}
	return &Transactions{name: t.name, blocks: t.blocks, records: t.records, items: items}
}

// Name returns the dataset's display name.
func (t *Transactions) Name() string { return t.name }

// NumRecords returns the number of transactions.
func (t *Transactions) NumRecords() int { return t.records }

// NumItems returns the number of distinct item identifiers (max id + 1).
func (t *Transactions) NumItems() int { return t.items }

// Record returns the i-th transaction without copying it. Its capacity
// equals its length, and it must not be modified.
func (t *Transactions) Record(i int) []int32 {
	return t.blocks[i/BlockRecords].Record(i % BlockRecords)
}

// NumBlocks returns the number of storage blocks.
func (t *Transactions) NumBlocks() int { return len(t.blocks) }

// Block returns storage block b, which holds records
// [b*BlockRecords, b*BlockRecords+Block(b).Len()).
func (t *Transactions) Block(b int) *Block { return t.blocks[b] }

// MeanLength returns the average number of (possibly repeated) items per
// transaction.
func (t *Transactions) MeanLength() float64 {
	if t.records == 0 {
		return 0
	}
	return float64(t.TotalLength()) / float64(t.records)
}

// TotalLength returns the total number of item slots across every record
// (repeats included). Incremental maintainers track it so MeanLength after an
// append agrees bit-for-bit with a full recompute.
func (t *Transactions) TotalLength() int {
	total := 0
	for _, b := range t.blocks {
		total += len(b.items)
	}
	return total
}

// ItemCounts returns, for each item id, the number of transactions that
// contain it at least once. These are exactly the sensitivity-1 monotonic
// counting queries used throughout Section 7: adding or removing one
// transaction changes each count by at most 1.
func (t *Transactions) ItemCounts() []float64 {
	counts := make([]float64, t.items)
	seen := make([]int, t.items) // record number+1 of last sighting, avoids clearing a bool slice per record
	stamp := 0
	for _, b := range t.blocks {
		var start uint32
		for _, end := range b.ends {
			stamp++
			for _, it := range b.items[start:end] {
				if seen[it] != stamp {
					seen[it] = stamp
					counts[it]++
				}
			}
			start = end
		}
	}
	return counts
}

// Stats summarises a dataset the way the table in Section 7.1 does.
type Stats struct {
	Name       string
	Records    int
	Items      int
	MeanLength float64
}

// Stats returns the dataset's summary statistics.
func (t *Transactions) Stats() Stats {
	return Stats{
		Name:       t.name,
		Records:    t.NumRecords(),
		Items:      t.NumItems(),
		MeanLength: t.MeanLength(),
	}
}

// String implements fmt.Stringer with a one-line summary.
func (s Stats) String() string {
	return fmt.Sprintf("%s: %d records, %d unique items, mean length %.2f",
		s.Name, s.Records, s.Items, s.MeanLength)
}

// RemoveRecord returns a copy of the database with record i removed. Together
// with the original it forms an adjacent pair D ∼ D' under the add/remove-one
// notion of adjacency used by the paper's privacy proofs and by the empirical
// privacy audit in internal/validate. The blocks before record i's block are
// shared; the records after it are repacked.
func (t *Transactions) RemoveRecord(i int) *Transactions {
	if i < 0 || i >= t.records {
		panic(fmt.Sprintf("dataset: record index %d out of range [0,%d)", i, t.records))
	}
	b := i / BlockRecords
	rest := make([][]int32, 0, t.records-b*BlockRecords-1)
	for j := b * BlockRecords; j < t.records; j++ {
		if j != i {
			rest = append(rest, t.Record(j))
		}
	}
	prefix := &Transactions{name: t.name, blocks: t.blocks[:b], records: b * BlockRecords, items: t.items}
	return prefix.AppendRecords(rest)
}

// AddRecord returns a copy of the database with one extra transaction.
// Item ids beyond the current universe grow the universe.
func (t *Transactions) AddRecord(record []int32) *Transactions {
	return t.AppendRecords([][]int32{record})
}

// AppendRecords returns a database extended with the delta transactions. The
// receiver's full blocks are shared; only its partial tail block (if any) is
// copied, and the delta is packed after it. An append therefore costs
// O(delta + one block + number of blocks), with no rescan of the shared
// records, and the receiver stays valid and unchanged. Item ids beyond the
// current universe grow it; negative ids panic (callers validate deltas
// before applying them).
func (t *Transactions) AppendRecords(delta [][]int32) *Transactions {
	items := t.items
	for _, r := range delta {
		for _, it := range r {
			if it < 0 {
				panic(fmt.Sprintf("dataset: negative item id %d", it))
			}
			if int(it)+1 > items {
				items = int(it) + 1
			}
		}
	}
	next := &Transactions{name: t.name, blocks: t.blocks, records: t.records + len(delta), items: items}
	if len(delta) == 0 {
		return next
	}
	blocks := make([]*Block, len(t.blocks), len(t.blocks)+len(delta)/BlockRecords+1)
	copy(blocks, t.blocks)
	var empty Block
	tail := &empty
	if k := len(blocks); k > 0 && blocks[k-1].Len() < BlockRecords {
		tail, blocks = blocks[k-1], blocks[:k-1]
	}
	for len(delta) > 0 {
		take := min(BlockRecords-tail.Len(), len(delta))
		blocks = append(blocks, tail.extend(delta[:take]))
		delta, tail = delta[take:], &empty
	}
	next.blocks = blocks
	return next
}

// TopKItems returns the indices of the k items with the largest true counts,
// in descending count order. Ties are broken by smaller item id so the result
// is deterministic. It is the ground truth against which precision, recall
// and F-measure are computed.
func TopKItems(counts []float64, k int) []int {
	if k < 0 {
		panic("dataset: negative k")
	}
	if k > len(counts) {
		k = len(counts)
	}
	idx := make([]int, len(counts))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if counts[idx[a]] != counts[idx[b]] {
			return counts[idx[a]] > counts[idx[b]]
		}
		return idx[a] < idx[b]
	})
	return idx[:k]
}

// KthLargest returns the k-th largest value of counts (1-based: k=1 is the
// maximum). It is used to pick thresholds "from the top 2k to top 8k" the way
// Section 7.2 describes.
func KthLargest(counts []float64, k int) float64 {
	if k < 1 || k > len(counts) {
		panic(fmt.Sprintf("dataset: k=%d out of range for %d counts", k, len(counts)))
	}
	cp := append([]float64(nil), counts...)
	sort.Sort(sort.Reverse(sort.Float64Slice(cp)))
	return cp[k-1]
}

// RandomThreshold draws a threshold uniformly between the top-2k-th and the
// top-8k-th largest counts, replicating the threshold selection protocol of
// Section 7.2 ("randomly picked from the top 2k to top 8k in each dataset").
func RandomThreshold(src rng.Source, counts []float64, k int) float64 {
	lo, hi := 2*k, 8*k
	if hi > len(counts) {
		hi = len(counts)
	}
	if lo < 1 {
		lo = 1
	}
	if lo > hi {
		lo = hi
	}
	rank := lo + rng.Intn(src, hi-lo+1)
	return KthLargest(counts, rank)
}

// CountAbove returns how many entries of counts are strictly greater than or
// equal to the threshold. It is the recall denominator for the SVT quality
// experiments (Figures 3d–3f).
func CountAbove(counts []float64, threshold float64) int {
	n := 0
	for _, c := range counts {
		if c >= threshold {
			n++
		}
	}
	return n
}
