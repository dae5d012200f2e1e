package persist

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/freegap/freegap/internal/accountant"
	"github.com/freegap/freegap/internal/dataset"
)

// testOptions keeps flushes fast and compaction manual so tests stay
// deterministic.
func testOptions() Options {
	return Options{Fsync: FsyncOff, FlushInterval: time.Millisecond, CompactEvery: -1}
}

func mustOpen(t *testing.T, dir string, opts Options) *Log {
	t.Helper()
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return l
}

func spentOf(ts TenantState) float64 {
	var sum float64
	for _, c := range ts.Charges {
		sum += c.Epsilon
	}
	return sum
}

func spentByLabel(ts TenantState) map[string]float64 {
	out := make(map[string]float64)
	for _, c := range ts.Charges {
		out[c.Label] += c.Epsilon
	}
	return out
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, testOptions())
	l.AppendCharge("acme", []accountant.Charge{{Label: "topk", Epsilon: 1.5}})
	l.AppendCharge("acme", []accountant.Charge{{Label: "svt", Epsilon: 0.5}, {Label: "max", Epsilon: 0.25}})
	l.AppendCharge("globex", []accountant.Charge{{Label: "topk", Epsilon: 2}})
	if err := l.AppendDataset(DatasetRecord{Name: "sales", Source: "upload:fimi", File: "datasets/sales.fimi"}); err != nil {
		t.Fatalf("AppendDataset: %v", err)
	}
	if err := l.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if err := l.Abort(); err != nil { // crash-style close: no compaction
		t.Fatalf("Abort: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotName)); !os.IsNotExist(err) {
		t.Fatalf("Abort wrote a snapshot (err %v)", err)
	}

	l2 := mustOpen(t, dir, testOptions())
	defer l2.Close()
	st := l2.State()
	acme, ok := st.Tenants["acme"]
	if !ok {
		t.Fatal("tenant acme not replayed")
	}
	if got := spentOf(acme); math.Abs(got-2.25) > 1e-12 {
		t.Errorf("acme spent = %v, want 2.25", got)
	}
	if acme.ChargeCount != 3 {
		t.Errorf("acme charge count = %d, want 3", acme.ChargeCount)
	}
	if by := spentByLabel(acme); by["topk"] != 1.5 || by["svt"] != 0.5 || by["max"] != 0.25 {
		t.Errorf("acme by-label = %v", by)
	}
	if got := spentOf(st.Tenants["globex"]); got != 2 {
		t.Errorf("globex spent = %v, want 2", got)
	}
	if len(st.Datasets) != 1 || st.Datasets[0].Name != "sales" || st.Datasets[0].File != "datasets/sales.fimi" {
		t.Errorf("datasets = %+v", st.Datasets)
	}
}

func TestCleanCloseCompacts(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, testOptions())
	for i := 0; i < 10; i++ {
		l.AppendCharge("acme", []accountant.Charge{{Label: "topk", Epsilon: 0.1}})
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Clean shutdown folds everything into the snapshot and retires the WAL
	// segment (header line only).
	data, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatalf("reading WAL: %v", err)
	}
	if lines := strings.Count(string(data), "\n"); lines != 1 {
		t.Errorf("post-Close WAL has %d lines, want 1 (segment header): %q", lines, data)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotName)); err != nil {
		t.Fatalf("snapshot missing after Close: %v", err)
	}

	l2 := mustOpen(t, dir, testOptions())
	defer l2.Close()
	st := l2.State()
	acme := st.Tenants["acme"]
	if got := spentOf(acme); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("restored spent = %v, want 1.0", got)
	}
	if acme.ChargeCount != 10 {
		t.Errorf("restored charge count = %d, want 10 (snapshot must preserve the admitted count)", acme.ChargeCount)
	}
}

func TestTruncatedTailRecovery(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, testOptions())
	l.AppendCharge("acme", []accountant.Charge{{Label: "topk", Epsilon: 1}})
	l.AppendCharge("acme", []accountant.Charge{{Label: "svt", Epsilon: 2}})
	if err := l.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if err := l.Abort(); err != nil {
		t.Fatalf("Abort: %v", err)
	}

	// Simulate a torn final write: a partial record with no newline.
	walPath := filepath.Join(dir, walName)
	f, err := os.OpenFile(walPath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"kind":"charge","tenant":"acme","charges":[{"label":"max","eps`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, _ := os.Stat(walPath)

	l2 := mustOpen(t, dir, testOptions())
	st := l2.State()
	acme := st.Tenants["acme"]
	if got := spentOf(acme); got != 3 {
		t.Errorf("spent after torn tail = %v, want 3 (last complete record)", got)
	}
	if acme.ChargeCount != 2 {
		t.Errorf("charge count = %d, want 2", acme.ChargeCount)
	}
	// The torn bytes must be gone so appends produce a well-formed log.
	after, _ := os.Stat(walPath)
	if after.Size() >= before.Size() {
		t.Errorf("WAL not truncated: %d >= %d bytes", after.Size(), before.Size())
	}
	l2.AppendCharge("acme", []accountant.Charge{{Label: "max", Epsilon: 4}})
	if err := l2.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := l2.Abort(); err != nil {
		t.Fatal(err)
	}

	l3 := mustOpen(t, dir, testOptions())
	defer l3.Close()
	if got := spentOf(l3.State().Tenants["acme"]); got != 7 {
		t.Errorf("spent after post-recovery append = %v, want 7", got)
	}
}

func TestGarbageTailRecovery(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, testOptions())
	l.AppendCharge("acme", []accountant.Charge{{Label: "topk", Epsilon: 1}})
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := l.Abort(); err != nil {
		t.Fatal(err)
	}
	// A newline-terminated but unparsable line (e.g. a disk scribble).
	f, err := os.OpenFile(filepath.Join(dir, walName), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("\x00\x00garbage\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2 := mustOpen(t, dir, testOptions())
	defer l2.Close()
	if got := spentOf(l2.State().Tenants["acme"]); got != 1 {
		t.Errorf("spent = %v, want 1", got)
	}
}

func TestStaleGenerationDiscarded(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, testOptions())
	l.AppendCharge("acme", []accountant.Charge{{Label: "topk", Epsilon: 1}})
	if err := l.Close(); err != nil { // snapshot gen=2, fresh WAL segment gen=2
		t.Fatal(err)
	}

	// Simulate the crash window between snapshot rename and WAL truncate: a
	// WAL whose records the snapshot already covers (older generation).
	stale := `{"kind":"begin","gen":1}` + "\n" +
		`{"kind":"charge","tenant":"acme","charges":[{"label":"topk","epsilon":1}]}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, walName), []byte(stale), 0o644); err != nil {
		t.Fatal(err)
	}

	l2 := mustOpen(t, dir, testOptions())
	defer l2.Close()
	if got := spentOf(l2.State().Tenants["acme"]); got != 1 {
		t.Errorf("spent = %v, want 1 (stale segment must not double-count)", got)
	}
}

func TestExplicitCompactAndContinue(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, testOptions())
	for i := 0; i < 5; i++ {
		l.AppendCharge("acme", []accountant.Charge{{Label: "topk", Epsilon: 1}})
	}
	if err := l.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	l.AppendCharge("acme", []accountant.Charge{{Label: "svt", Epsilon: 2}})
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := l.Abort(); err != nil {
		t.Fatal(err)
	}

	l2 := mustOpen(t, dir, testOptions())
	defer l2.Close()
	acme := l2.State().Tenants["acme"]
	if got := spentOf(acme); got != 7 {
		t.Errorf("spent = %v, want 7 (5 compacted + 2 from WAL)", got)
	}
	if acme.ChargeCount != 6 {
		t.Errorf("charge count = %d, want 6", acme.ChargeCount)
	}
}

func TestAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{Fsync: FsyncOff, FlushInterval: time.Millisecond, CompactEvery: 8})
	for i := 0; i < 50; i++ {
		l.AppendCharge("acme", []accountant.Charge{{Label: "topk", Epsilon: 1}})
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(filepath.Join(dir, snapshotName)); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no snapshot appeared despite CompactEvery=8")
		}
		time.Sleep(time.Millisecond)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2 := mustOpen(t, dir, testOptions())
	defer l2.Close()
	if got := spentOf(l2.State().Tenants["acme"]); got != 50 {
		t.Errorf("spent = %v, want 50", got)
	}
}

func TestDatasetBlobRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, testOptions())
	db := dataset.New("sales", [][]int32{{0, 1, 2}, {1, 2}, {2}})
	rel, err := l.SaveDatasetBlob("sales", db)
	if err != nil {
		t.Fatalf("SaveDatasetBlob: %v", err)
	}
	if err := l.AppendDataset(DatasetRecord{Name: "sales", Source: "upload:fimi", File: rel}); err != nil {
		t.Fatalf("AppendDataset: %v", err)
	}
	if err := l.AppendDataset(DatasetRecord{Name: "sales", Source: "x"}); err == nil {
		t.Error("duplicate dataset record accepted")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := mustOpen(t, dir, testOptions())
	defer l2.Close()
	st := l2.State()
	if len(st.Datasets) != 1 {
		t.Fatalf("datasets = %+v", st.Datasets)
	}
	got, err := dataset.ReadFIMIFile(l2.BlobPath(st.Datasets[0]))
	if err != nil {
		t.Fatalf("reading blob: %v", err)
	}
	if got.NumRecords() != 3 || got.NumItems() != 3 {
		t.Errorf("blob = %d records, %d items; want 3, 3", got.NumRecords(), got.NumItems())
	}
}

// TestBlobCommitAndAbort: a committed blob holds exactly the bytes written
// to it under datasets/<name>.fimi, an aborted one leaves no file, and
// neither leaves a temp behind.
func TestBlobCommitAndAbort(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{Fsync: FsyncAlways, CompactEvery: -1})
	defer l.Close()
	text := "0 1 2\r\n\n1 2\n2\n"
	b := l.NewBlob()
	for _, chunk := range []string{text[:4], text[4:]} {
		if n, err := b.Write([]byte(chunk)); n != len(chunk) || err != nil {
			t.Fatalf("Write = %d, %v", n, err)
		}
	}
	rel, err := b.Commit("sales")
	if err != nil || rel != "datasets/sales.fimi" {
		t.Fatalf("Commit = %q, %v", rel, err)
	}
	b.Abort() // a no-op after Commit
	if got, err := os.ReadFile(filepath.Join(dir, "datasets", "sales.fimi")); err != nil || string(got) != text {
		t.Fatalf("committed blob = %q, %v; want %q", got, err, text)
	}
	if _, err := b.Commit("again"); err == nil {
		t.Error("second Commit succeeded")
	}

	doomed := l.NewBlob()
	doomed.Write([]byte("3 4\n"))
	doomed.Abort()
	entries, err := os.ReadDir(filepath.Join(dir, "datasets"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "sales.fimi" {
		t.Errorf("datasets/ holds %v, want only sales.fimi", entries)
	}
}

// TestOpenRemovesBlobTemps: a crash between writing a blob's temp and
// committing it leaves the temp behind. Open removes every datasets/*.tmp,
// which no WAL or snapshot record references, and leaves the blobs that
// records do reference untouched.
func TestOpenRemovesBlobTemps(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, testOptions())
	rel, err := l.SaveDatasetBlob("sales", dataset.New("sales", [][]int32{{0, 1}, {1}}))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendDataset(DatasetRecord{Name: "sales", Source: "upload:fimi", File: rel}); err != nil {
		t.Fatal(err)
	}
	l.NewBlob().Write([]byte("5 6\n")) // never committed: the crash
	if err := l.Abort(); err != nil {
		t.Fatal(err)
	}
	blobs := filepath.Join(dir, "datasets")
	if err := os.WriteFile(filepath.Join(blobs, "old.fimi.tmp"), []byte("7\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(blobs, "sales.fimi"))
	if err != nil {
		t.Fatal(err)
	}

	l2 := mustOpen(t, dir, testOptions())
	defer l2.Close()
	entries, err := os.ReadDir(blobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "sales.fimi" {
		t.Errorf("datasets/ holds %v after Open, want only sales.fimi", entries)
	}
	st := l2.State()
	if len(st.Datasets) != 1 {
		t.Fatalf("datasets = %+v", st.Datasets)
	}
	if got, err := os.ReadFile(l2.BlobPath(st.Datasets[0])); err != nil || string(got) != string(want) {
		t.Errorf("referenced blob = %q, %v; want %q", got, err, want)
	}
}

func TestFsyncAlwaysDurableWithoutFlush(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{Fsync: FsyncAlways, CompactEvery: -1})
	l.AppendCharge("acme", []accountant.Charge{{Label: "topk", Epsilon: 1}})
	// No Flush: always-mode appends must already be on disk.
	if err := l.Abort(); err != nil {
		t.Fatal(err)
	}
	l2 := mustOpen(t, dir, testOptions())
	defer l2.Close()
	if got := spentOf(l2.State().Tenants["acme"]); got != 1 {
		t.Errorf("spent = %v, want 1", got)
	}
}

func TestAppendAfterCloseDropped(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, testOptions())
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l.AppendCharge("acme", []accountant.Charge{{Label: "topk", Epsilon: 1}}) // must not panic
	if err := l.AppendDataset(DatasetRecord{Name: "d"}); err == nil {
		t.Error("AppendDataset after Close succeeded")
	}
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open("", Options{}); err == nil {
		t.Error("empty dir accepted")
	}
	if _, err := Open(t.TempDir(), Options{Fsync: "sometimes"}); err == nil {
		t.Error("bad fsync mode accepted")
	}
	if _, err := ParseFsyncMode("nope"); err == nil {
		t.Error("ParseFsyncMode accepted garbage")
	}
	if mode, err := ParseFsyncMode(""); err != nil || mode != FsyncBatch {
		t.Errorf("ParseFsyncMode(\"\") = %v, %v", mode, err)
	}
}

func TestUnknownRecordKindRejected(t *testing.T) {
	dir := t.TempDir()
	wal := `{"kind":"begin","gen":1}` + "\n" +
		`{"kind":"refund","tenant":"acme"}` + "\n" +
		`{"kind":"charge","tenant":"acme","charges":[{"label":"topk","epsilon":1}]}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, walName), []byte(wal), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, testOptions()); err == nil {
		t.Error("unknown mid-file record kind silently accepted")
	}
}

// TestConcurrentAppends exercises the journal hot path under the race
// detector: many goroutines appending while the flusher drains.
func TestConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{Fsync: FsyncOff, FlushInterval: time.Millisecond, CompactEvery: 64})
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				l.AppendCharge("acme", []accountant.Charge{{Label: "topk", Epsilon: 0.001}})
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2 := mustOpen(t, dir, testOptions())
	defer l2.Close()
	acme := l2.State().Tenants["acme"]
	if acme.ChargeCount != 1600 {
		t.Errorf("charge count = %d, want 1600", acme.ChargeCount)
	}
	if got := spentOf(acme); math.Abs(got-1.6) > 1e-9 {
		t.Errorf("spent = %v, want 1.6", got)
	}
}

// TestMidFileCorruptionRefused: an unparsable line FOLLOWED by valid records
// is not a crash tear (a crash damages only the tail) — truncating there
// would silently refund every later charge, so Open must refuse instead.
func TestMidFileCorruptionRefused(t *testing.T) {
	dir := t.TempDir()
	wal := `{"kind":"begin","gen":1}` + "\n" +
		`{"kind":"charge","tenant":"acme","charges":[{"label":"topk","epsilon":1}]}` + "\n" +
		"\x00\x00scribble\n" +
		`{"kind":"charge","tenant":"acme","charges":[{"label":"topk","epsilon":2}]}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, walName), []byte(wal), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, testOptions()); err == nil {
		t.Fatal("mid-file corruption silently truncated instead of refusing")
	}
}

// TestStateDirLocked: a second concurrent Open of the same state directory
// must be refused — two processes replaying the same budgets would let every
// tenant double-spend.
func TestStateDirLocked(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, testOptions())
	if _, err := Open(dir, testOptions()); err == nil {
		t.Fatal("second Open of a locked state directory succeeded")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2 := mustOpen(t, dir, testOptions()) // released on close
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAppendDeltaSeqRoundTrip: per-dataset append sequence numbers survive
// the WAL round trip with arbitrary cross-dataset interleaving, so replay
// can prove each dataset's subsequence is contiguous.
func TestAppendDeltaSeqRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, testOptions())
	deltas := []AppendRecord{
		{Name: "a", Seq: 1, Records: [][]int32{{0}}},
		{Name: "b", Seq: 1, Records: [][]int32{{1, 2}}},
		{Name: "a", Seq: 2, Records: [][]int32{{3}}},
		{Name: "b", Seq: 2, Records: [][]int32{{4}}},
		{Name: "a", Seq: 3, Records: [][]int32{{5}}},
	}
	for _, rec := range deltas {
		if err := l.AppendDelta(rec); err != nil {
			t.Fatalf("AppendDelta(%q seq %d): %v", rec.Name, rec.Seq, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := mustOpen(t, dir, testOptions())
	defer l2.Close()
	seqs := make(map[string][]uint64)
	got := 0
	for _, ev := range l2.State().Events {
		if ev.Append == nil {
			continue
		}
		want := deltas[got]
		if ev.Append.Name != want.Name || ev.Append.Seq != want.Seq {
			t.Errorf("event %d = %q seq %d, want %q seq %d", got, ev.Append.Name, ev.Append.Seq, want.Name, want.Seq)
		}
		seqs[ev.Append.Name] = append(seqs[ev.Append.Name], ev.Append.Seq)
		got++
	}
	if got != len(deltas) {
		t.Fatalf("replayed %d append events, want %d", got, len(deltas))
	}
	for name, ss := range seqs {
		for i, s := range ss {
			if s != uint64(i)+1 {
				t.Errorf("dataset %q subsequence %v is not contiguous from 1", name, ss)
				break
			}
		}
	}
}

// TestDrainBufShrinksAfterOversizedDrain: one huge drain must not pin its
// peak scratch capacity for the life of the log.
func TestDrainBufShrinksAfterOversizedDrain(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{Fsync: FsyncAlways, CompactEvery: -1})
	defer l.Close()
	big := make([][]int32, 1<<17) // ~1.3 MiB of JSON, past the retain cap
	for i := range big {
		big[i] = []int32{int32(i)}
	}
	if err := l.AppendDelta(AppendRecord{Name: "sales", Seq: 1, Records: big}); err != nil {
		t.Fatalf("AppendDelta(big): %v", err)
	}
	l.ioMu.Lock()
	c := cap(l.drainBuf)
	l.ioMu.Unlock()
	if c > maxRetainedDrainBuf {
		t.Errorf("drainBuf cap after oversized drain = %d, want <= %d", c, maxRetainedDrainBuf)
	}
	// A modest drain afterwards keeps its (small) buffer for reuse.
	if err := l.AppendDelta(AppendRecord{Name: "sales", Seq: 2, Records: [][]int32{{1}}}); err != nil {
		t.Fatalf("AppendDelta(small): %v", err)
	}
	l.ioMu.Lock()
	c = cap(l.drainBuf)
	l.ioMu.Unlock()
	if c == 0 || c > maxRetainedDrainBuf {
		t.Errorf("drainBuf cap after small drain = %d, want small and non-zero", c)
	}
}
