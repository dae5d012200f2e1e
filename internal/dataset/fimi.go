package dataset

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
)

// FIMILimits bounds what the FIMI parser accepts, protecting callers that
// parse untrusted input: without a MaxItemID cap, the single line
// "2000000000" would give the parsed database a two-billion-item universe
// whose count vector costs gigabytes to materialise. Fields that are zero or
// negative mean unlimited.
type FIMILimits struct {
	// MaxRecords bounds the number of transactions.
	MaxRecords int
	// MaxItemID bounds the largest acceptable item identifier.
	MaxItemID int32
}

// ReadFIMI parses a transaction database in the FIMI workshop text format:
// one transaction per line, item identifiers separated by single spaces.
// Blank lines are skipped. This is the format the original BMS-POS, Kosarak
// and T40I10D100K files are distributed in, so real data can be substituted
// for the synthetic stand-ins without code changes.
func ReadFIMI(r io.Reader, name string) (*Transactions, error) {
	return ReadFIMILimited(r, name, FIMILimits{})
}

// ReadFIMILimited is ReadFIMI with input limits enforced during the parse,
// for callers reading untrusted data (the dpserver upload endpoint).
//
// A line made only of ASCII digits, spaces, tabs and CRs, with no id past
// the limits, is parsed byte by byte with no allocation of its own. Every
// other line (a sign, a Unicode space, a letter, an id out of range) takes
// the general TrimSpace/Fields/Atoi path, so both paths accept the same
// input and report the same errors.
func ReadFIMILimited(r io.Reader, name string, lim FIMILimits) (*Transactions, error) {
	scanner := bufio.NewScanner(r)
	// Start small and let the scanner grow toward the 16 MiB line cap on
	// demand: this parser also sits on the append hot path, where the typical
	// input is a few-line delta and a fixed megabyte-sized buffer per parse
	// would dominate the allocation profile.
	scanner.Buffer(make([]byte, 16*1024), 16*1024*1024)
	// Records are packed straight into blocks: items and ends hold the open
	// block and are reused, so each sealed block costs two exact-size
	// allocations and no record gets a slice of its own.
	t := &Transactions{name: name}
	var items []int32
	var ends []uint32
	seal := func() {
		t.blocks = append(t.blocks, &Block{items: slices.Clone(items), ends: slices.Clone(ends)})
		items, ends = items[:0], ends[:0]
	}
	maxID := int32(math.MaxInt32)
	if lim.MaxItemID > 0 {
		maxID = lim.MaxItemID
	}
	line := 0
	for scanner.Scan() {
		line++
		start := len(items)
		var (
			top   int32
			plain bool
			err   error
		)
		if items, top, plain = appendPlain(items, scanner.Bytes(), maxID); plain {
			if len(items) == start {
				continue // blank
			}
			if lim.MaxRecords > 0 && t.records >= lim.MaxRecords {
				return nil, fmt.Errorf("dataset: line %d: more than %d records", line, lim.MaxRecords)
			}
			t.items = max(t.items, int(top)+1)
		} else {
			text := strings.TrimSpace(scanner.Text())
			if text == "" {
				continue
			}
			if lim.MaxRecords > 0 && t.records >= lim.MaxRecords {
				return nil, fmt.Errorf("dataset: line %d: more than %d records", line, lim.MaxRecords)
			}
			if items, err = t.appendFields(items, text, line, lim); err != nil {
				return nil, err
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

// appendPlain appends the ids of a line made only of ASCII digits, spaces,
// tabs and CRs, none of them above maxID, and returns the largest (-1 for a
// blank line). For any other line it returns items unchanged and plain
// false.
func appendPlain(items []int32, line []byte, maxID int32) (_ []int32, top int32, plain bool) {
	start := len(items)
	top = -1
	for i := 0; i < len(line); {
		c := line[i]
		if c == ' ' || c == '\t' || c == '\r' {
			i++
			continue
		}
		if c-'0' >= 10 {
			return items[:start], 0, false
		}
		// Up to 18 digits cannot overflow v; a longer run (an id padded
		// with zeros) takes the general path.
		j := i + 1
		v := int64(c - '0')
		for ; j < len(line) && line[j]-'0' < 10; j++ {
			v = v*10 + int64(line[j]-'0')
		}
		if j-i > 18 || v > int64(maxID) {
			return items[:start], 0, false
		}
		items = append(items, int32(v))
		top = max(top, int32(v))
		i = j
	}
	return items, top, true
}

// appendFields appends the ids of one trimmed, non-blank line, checking each
// against the int32 range and the limits.
func (t *Transactions) appendFields(items []int32, text string, line int, lim FIMILimits) ([]int32, error) {
	for _, f := range strings.Fields(text) {
		v, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d: invalid item %q: %w", line, f, err)
		}
		if v < 0 {
			return nil, fmt.Errorf("dataset: line %d: negative item id %d", line, v)
		}
		// Item ids are int32 throughout; without this check an id above
		// MaxInt32 would silently overflow negative in the conversion
		// below and panic the Transactions constructor (found by
		// FuzzReadFIMI).
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
	return items, nil
}

// ReadFIMIFile opens path and parses it with ReadFIMI, naming the dataset
// after the file.
func ReadFIMIFile(path string) (*Transactions, error) {
	return ReadFIMIFileLimited(path, FIMILimits{})
}

// ReadFIMIFileLimited is ReadFIMIFile with input limits enforced during the
// parse.
func ReadFIMIFileLimited(path string, lim FIMILimits) (*Transactions, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	defer f.Close()
	return ReadFIMILimited(f, path, lim)
}

// WriteFIMI writes the database in the FIMI text format.
func WriteFIMI(w io.Writer, t *Transactions) error {
	bw := bufio.NewWriter(w)
	var line []byte
	for _, b := range t.blocks {
		for i := 0; i < b.Len(); i++ {
			line = line[:0]
			for j, item := range b.Record(i) {
				if j > 0 {
					line = append(line, ' ')
				}
				line = strconv.AppendInt(line, int64(item), 10)
			}
			if _, err := bw.Write(append(line, '\n')); err != nil {
				return fmt.Errorf("dataset: writing FIMI output: %w", err)
			}
		}
	}
	return bw.Flush()
}

// WriteFIMIFile writes the database to path in the FIMI text format.
func WriteFIMIFile(path string, t *Transactions) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	if err := WriteFIMI(f, t); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
