package dataset

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// FuzzReadFIMI drives the untrusted-upload parser with arbitrary bytes. The
// parser must never panic — the upload endpoint feeds it attacker-chosen
// request bodies — and every accepted parse must satisfy the limits it was
// given and the Transactions invariants, and round-trip through WriteFIMI.
// The seed corpus covers the historical panic (an item id above MaxInt32
// silently overflowed the int32 conversion and panicked the constructor),
// the format's edge shapes, and an input that crosses a storage block edge;
// the record limit leaves room for two full blocks. Every input also goes
// through referenceReadFIMI, the parser before its byte-level path: both
// must return the same records or the same error.
func FuzzReadFIMI(f *testing.F) {
	for _, seed := range []string{
		"",
		"\n\n",
		"1 2 3\n4 5\n",
		"0\n",
		"  7   8  \n",
		"1 1 1\n",
		"a b\n",
		"-1\n",
		"3000000000\n",          // > MaxInt32: overflowed to a negative int32 and panicked
		"9223372036854775807\n", // MaxInt64
		"99999999999999999999\n",
		"1\x002\n",
		"1,2,3\n",
		"+5 -0 007\n",
		"1\r\n2\t3\r\n\r\n",
		"4\v5\f6\n",
		"1\u00a02\u20283\n",
		"65536 65537\n",
		"2147483647\n",
		"2147483648\n",
		"000000000000000000000000065535\n",
		"1 2\n3\n4\n5\n",
		strings.Repeat("5 ", 100) + "\n",
		"65535\n0\n65535\n",
		strings.Repeat("1 2\n3\n", BlockRecords/2) + "4 5 6\n", // BlockRecords+1 records
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data string) {
		lim := FIMILimits{MaxRecords: 2 * BlockRecords, MaxItemID: 1 << 16}
		db, err := ReadFIMILimited(strings.NewReader(data), "fuzz", lim)
		for _, l := range []FIMILimits{lim, {MaxRecords: 3, MaxItemID: 9}, {}} {
			got, err := ReadFIMILimited(strings.NewReader(data), "fuzz", l)
			want, werr := referenceReadFIMI(strings.NewReader(data), "fuzz", l)
			sameParse(t, l, got, err, want, werr)
		}
		if err == nil {
			if db.NumRecords() > lim.MaxRecords {
				t.Fatalf("parsed %d records past the %d limit", db.NumRecords(), lim.MaxRecords)
			}
			if db.NumItems() > int(lim.MaxItemID)+1 {
				t.Fatalf("item universe %d past the limit %d", db.NumItems(), lim.MaxItemID+1)
			}
			counts := db.ItemCounts()
			if len(counts) != db.NumItems() {
				t.Fatalf("ItemCounts length %d != NumItems %d", len(counts), db.NumItems())
			}
			for i, c := range counts {
				if c < 0 || c > float64(db.NumRecords()) {
					t.Fatalf("counts[%d] = %v outside [0, %d]", i, c, db.NumRecords())
				}
			}
			var out bytes.Buffer
			if err := WriteFIMI(&out, db); err != nil {
				t.Fatal(err)
			}
			back, err := ReadFIMILimited(bytes.NewReader(out.Bytes()), "fuzz", lim)
			if err != nil {
				t.Fatalf("re-parsing the written form: %v", err)
			}
			if back.NumRecords() != db.NumRecords() || back.NumItems() != db.NumItems() {
				t.Fatalf("round trip: %d records, %d items; want %d, %d",
					back.NumRecords(), back.NumItems(), db.NumRecords(), db.NumItems())
			}
			for i := 0; i < db.NumRecords(); i++ {
				if !slices.Equal(back.Record(i), db.Record(i)) {
					t.Fatalf("round trip: record %d = %v, want %v", i, back.Record(i), db.Record(i))
				}
			}
		}

		// The unlimited parse (trusted-file path) must not panic either —
		// this is the configuration that used to overflow. Item universes
		// here can be huge, so only cheap invariants are checked.
		if db, err := ReadFIMILimited(strings.NewReader(data), "fuzz", FIMILimits{}); err == nil {
			if db.NumItems() < 0 {
				t.Fatalf("negative item universe %d", db.NumItems())
			}
		}
	})
}

// sameParse fails t unless two parses returned the same error text, or the
// same records and item universe.
func sameParse(t *testing.T, lim FIMILimits, got *Transactions, err error, want *Transactions, werr error) {
	t.Helper()
	if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
		t.Fatalf("limits %+v: error %v, reference %v", lim, err, werr)
	}
	if err != nil {
		return
	}
	if got.NumRecords() != want.NumRecords() || got.NumItems() != want.NumItems() || got.NumBlocks() != want.NumBlocks() {
		t.Fatalf("limits %+v: %d records, %d items, %d blocks; reference %d, %d, %d", lim,
			got.NumRecords(), got.NumItems(), got.NumBlocks(), want.NumRecords(), want.NumItems(), want.NumBlocks())
	}
	for i := 0; i < got.NumRecords(); i++ {
		if !slices.Equal(got.Record(i), want.Record(i)) {
			t.Fatalf("limits %+v: record %d = %v, reference %v", lim, i, got.Record(i), want.Record(i))
		}
	}
}

// referenceReadFIMI is ReadFIMILimited as it was before the byte-level
// path: every line goes through TrimSpace, Fields and Atoi.
func referenceReadFIMI(r io.Reader, name string, lim FIMILimits) (*Transactions, error) {
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 16*1024), 16*1024*1024)
	t := &Transactions{name: name}
	var items []int32
	var ends []uint32
	seal := func() {
		t.blocks = append(t.blocks, &Block{items: slices.Clone(items), ends: slices.Clone(ends)})
		items, ends = items[:0], ends[:0]
	}
	line := 0
	for scanner.Scan() {
		line++
		text := strings.TrimSpace(scanner.Text())
		if text == "" {
			continue
		}
		if lim.MaxRecords > 0 && t.records >= lim.MaxRecords {
			return nil, fmt.Errorf("dataset: line %d: more than %d records", line, lim.MaxRecords)
		}
		for _, f := range strings.Fields(text) {
			v, err := strconv.Atoi(f)
			if err != nil {
				return nil, fmt.Errorf("dataset: line %d: invalid item %q: %w", line, f, err)
			}
			if v < 0 {
				return nil, fmt.Errorf("dataset: line %d: negative item id %d", line, v)
			}
			if v > math.MaxInt32 {
				return nil, fmt.Errorf("dataset: line %d: item id %d exceeds the int32 range", line, v)
			}
			if lim.MaxItemID > 0 && v > int(lim.MaxItemID) {
				return nil, fmt.Errorf("dataset: line %d: item id %d exceeds the limit of %d", line, v, lim.MaxItemID)
			}
			items = append(items, int32(v))
			if v >= t.items {
				t.items = v + 1
			}
		}
		if uint64(len(items)) > math.MaxUint32 {
			return nil, fmt.Errorf("dataset: line %d: %d records hold more than %d items", line, len(ends)+1, uint64(math.MaxUint32))
		}
		ends = append(ends, uint32(len(items)))
		t.records++
		if len(ends) == BlockRecords {
			seal()
		}
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("dataset: reading FIMI input: %w", err)
	}
	if len(ends) > 0 {
		seal()
	}
	return t, nil
}
