// Package workload holds everything the benchmark's end-to-end driver and
// its traced replay share: the inputs each workload generates, the seeded op
// streams, the naive reference evaluator the answer checks compare against,
// and the percentile function. It imports nothing from the server's module,
// so a refactor of the server's internals cannot break the end-to-end gate.
package workload

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
)

// Data is the benchmark's own copy of one dataset: its records in upload
// order, appended deltas included once the driver applies them.
type Data struct {
	Records [][]int32
}

// ParseFIMI reads the FIMI text format the generators write: one record per
// line, space-separated non-negative item ids; blank lines are skipped.
func ParseFIMI(text []byte) (*Data, error) {
	d := &Data{}
	for line := 1; len(text) > 0; line++ {
		var row []byte
		if i := bytes.IndexByte(text, '\n'); i >= 0 {
			row, text = text[:i], text[i+1:]
		} else {
			row, text = text, nil
		}
		fields := bytes.Fields(row)
		if len(fields) == 0 {
			continue
		}
		rec := make([]int32, len(fields))
		for i, f := range fields {
			v, err := strconv.ParseInt(string(f), 10, 32)
			if err != nil || v < 0 {
				return nil, fmt.Errorf("workload: line %d: bad item %q", line, f)
			}
			rec[i] = int32(v)
		}
		d.Records = append(d.Records, rec)
	}
	return d, nil
}

// ReadInputs reads a workload's generated inputs from dir, where each input
// is the file <name>.dat. It returns every input parsed, and the raw text of
// the uploaded datasets.
func ReadInputs(workload, dir string) (map[string]*Data, map[string][]byte, error) {
	inputs, err := Inputs(workload)
	if err != nil {
		return nil, nil, err
	}
	data := map[string]*Data{}
	fimi := map[string][]byte{}
	for _, in := range inputs {
		b, err := os.ReadFile(filepath.Join(dir, in.Name+".dat"))
		if err != nil {
			return nil, nil, err
		}
		if data[in.Name], err = ParseFIMI(b); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", in.Name, err)
		}
		if in.PoolFor == "" {
			fimi[in.Name] = b
		}
	}
	return data, fimi, nil
}

// FIMI renders records in the FIMI text format.
func FIMI(records [][]int32) []byte {
	var b []byte
	for _, rec := range records {
		for i, it := range rec {
			if i > 0 {
				b = append(b, ' ')
			}
			b = strconv.AppendInt(b, int64(it), 10)
		}
		b = append(b, '\n')
	}
	return b
}

// Universe is the server's item universe for records: the largest item id
// plus one.
func Universe(records [][]int32) int {
	max := int32(-1)
	for _, rec := range records {
		for _, it := range rec {
			if it > max {
				max = it
			}
		}
	}
	return int(max) + 1
}

// Counts returns, per item in the universe, how many records contain it at
// least once.
func Counts(records [][]int32, universe int) []float64 {
	return filterCounts(records, universe, nil, 0, 0)
}

// filterCounts counts, per item, the records that contain every item of
// contains, have a length in [minLen, maxLen] (maxLen 0 = unbounded) and
// hold the item.
func filterCounts(records [][]int32, universe int, contains []int32, minLen, maxLen int) []float64 {
	out := make([]float64, universe)
	seen := make([]int, universe)
	for ri, rec := range records {
		if len(rec) < minLen || (maxLen > 0 && len(rec) > maxLen) || !containsAll(rec, contains) {
			continue
		}
		for _, it := range rec {
			if seen[it] != ri+1 {
				seen[it] = ri + 1
				out[it]++
			}
		}
	}
	return out
}

func containsAll(rec, want []int32) bool {
outer:
	for _, w := range want {
		for _, it := range rec {
			if it == w {
				continue outer
			}
		}
		return false
	}
	return true
}

// ranked returns item ids ordered by descending count, ties by smaller id.
func ranked(counts []float64) []int32 {
	ids := make([]int32, len(counts))
	for i := range ids {
		ids[i] = int32(i)
	}
	sort.SliceStable(ids, func(a, b int) bool { return counts[ids[a]] > counts[ids[b]] })
	return ids
}

// lengthQuantile returns the q-quantile (0..1) of the record lengths.
func lengthQuantile(records [][]int32, q float64) int {
	lens := make([]int, len(records))
	for i, rec := range records {
		lens[i] = len(rec)
	}
	sort.Ints(lens)
	return lens[int(q*float64(len(lens)-1))]
}
