package dataset

import (
	"bytes"
	"slices"
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
// the record limit leaves room for two full blocks.
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
		strings.Repeat("5 ", 100) + "\n",
		"65535\n0\n65535\n",
		strings.Repeat("1 2\n3\n", BlockRecords/2) + "4 5 6\n", // BlockRecords+1 records
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data string) {
		lim := FIMILimits{MaxRecords: 2 * BlockRecords, MaxItemID: 1 << 16}
		db, err := ReadFIMILimited(strings.NewReader(data), "fuzz", lim)
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
