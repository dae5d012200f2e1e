// Package persist makes the dpserver's privacy-critical state durable. The
// in-memory service state — per-tenant spent budget (with per-mechanism
// labels) and the dataset catalog — is exactly the state a restart must not
// lose: silently refunding spent ε is a privacy-accounting bug, not an ops
// inconvenience.
//
// The design is a classic write-ahead log with periodic compaction:
//
//   - wal.jsonl — an append-only JSON-lines log. Every admitted budget
//     charge (one record per accountant SpendBatch, preserving the atomic
//     multi-charge), every dataset registration, every admitted dataset
//     append delta and every registered threshold monitor appends one
//     record. Records are written iff the state change committed; the
//     dataset/append/monitor interleaving is preserved through snapshots so
//     replay feeds each restored monitor exactly the appends it saw live.
//   - snapshot.json — a compacted view of everything the WAL said, written
//     atomically (temp file + rename) every Options.CompactEvery WAL
//     records and on clean Close; after a snapshot the WAL is truncated.
//   - datasets/<name>.fimi — one FIMI-format blob per registered dataset;
//     WAL/snapshot records reference the blob so replay can rebuild the
//     transactions (and recompute the item-count vector exactly once). A
//     Blob is written to a temp file in datasets/ — an upload tees the text
//     it parses into it, SaveDatasetBlob streams WriteFIMI — and committed
//     (fsync, rename, directory sync) before the record that references
//     it. Open removes the temps a crash leaves behind.
//
// Appends go through an in-memory buffer drained by a background flusher, so
// the request hot path never waits on fsync (Options.Fsync FsyncBatch); the
// paranoid can trade latency for zero-loss with FsyncAlways.
//
// Crash consistency: WAL segments carry a generation number, recorded in the
// segment's first line and in the snapshot. A crash between "snapshot
// renamed" and "WAL truncated" leaves a stale-generation WAL behind, which
// Open detects and discards instead of double-counting its charges. A torn
// final write (no trailing newline, or an unparsable last line) is recovered
// by truncating the WAL to the last complete record.
package persist

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/freegap/freegap/internal/accountant"
	"github.com/freegap/freegap/internal/dataset"
)

// State-directory layout.
const (
	walName        = "wal.jsonl"
	snapshotName   = "snapshot.json"
	datasetDirName = "datasets"
)

// FsyncMode selects when the WAL is fsynced.
type FsyncMode string

const (
	// FsyncBatch (the default) fsyncs from the background flusher, at most
	// once per flush interval, so charges never pay for disk latency on the
	// request path. A hard crash can lose at most the last unflushed
	// interval of records.
	FsyncBatch FsyncMode = "batch"
	// FsyncAlways writes and fsyncs synchronously inside every append —
	// maximal durability, request-path disk latency.
	FsyncAlways FsyncMode = "always"
	// FsyncOff writes from the flusher but never fsyncs, leaving
	// durability to the OS page cache.
	FsyncOff FsyncMode = "off"
)

// ParseFsyncMode validates a mode string (the -fsync flag).
func ParseFsyncMode(s string) (FsyncMode, error) {
	switch FsyncMode(s) {
	case FsyncBatch, FsyncAlways, FsyncOff:
		return FsyncMode(s), nil
	case "":
		return FsyncBatch, nil
	default:
		return "", fmt.Errorf("persist: unknown fsync mode %q (valid: %q, %q, %q)", s, FsyncBatch, FsyncAlways, FsyncOff)
	}
}

// Default option values applied by Options.withDefaults.
const (
	// DefaultFlushInterval is how often the background flusher drains the
	// append buffer in FsyncBatch/FsyncOff mode.
	DefaultFlushInterval = 25 * time.Millisecond
	// DefaultCompactEvery is how many WAL records accumulate before the
	// flusher folds them into a fresh snapshot and truncates the WAL.
	DefaultCompactEvery = 8192
)

// Options configures a Log. The zero value is ready to use.
type Options struct {
	// Fsync selects the durability mode (default FsyncBatch).
	Fsync FsyncMode
	// FlushInterval is the background flush cadence (default
	// DefaultFlushInterval). Ignored with FsyncAlways.
	FlushInterval time.Duration
	// CompactEvery is the WAL record count that triggers snapshot
	// compaction (default DefaultCompactEvery; negative disables automatic
	// compaction — clean Close still compacts).
	CompactEvery int
}

func (o Options) withDefaults() (Options, error) {
	var err error
	if o.Fsync, err = ParseFsyncMode(string(o.Fsync)); err != nil {
		return o, err
	}
	if o.FlushInterval == 0 {
		o.FlushInterval = DefaultFlushInterval
	}
	if o.FlushInterval < 0 {
		return o, fmt.Errorf("persist: flush interval %v must be positive", o.FlushInterval)
	}
	if o.CompactEvery == 0 {
		o.CompactEvery = DefaultCompactEvery
	}
	return o, nil
}

// record is one WAL line. Exactly one of the kind-specific payloads is set.
type record struct {
	// Kind is "begin" (segment header), "charge", "dataset", "append" or
	// "monitor".
	Kind string `json:"kind"`
	// Gen is the WAL segment generation (kind "begin").
	Gen uint64 `json:"gen,omitempty"`
	// Tenant and Charges describe one admitted accountant charge batch
	// (kind "charge").
	Tenant  string       `json:"tenant,omitempty"`
	Charges []chargeJSON `json:"charges,omitempty"`
	// Dataset describes one dataset registration (kind "dataset").
	Dataset *DatasetRecord `json:"dataset,omitempty"`
	// Append describes one admitted dataset append delta (kind "append").
	Append *AppendRecord `json:"append,omitempty"`
	// Monitor describes one registered threshold monitor (kind "monitor").
	Monitor *MonitorRecord `json:"monitor,omitempty"`
}

type chargeJSON struct {
	Label   string  `json:"label"`
	Epsilon float64 `json:"epsilon"`
}

// DatasetRecord describes one registered dataset durably: where the catalog
// can rebuild it from, not the materialised transactions themselves.
type DatasetRecord struct {
	// Name is the catalog key.
	Name string `json:"name"`
	// Source is the provenance label carried into the catalog ("upload:fimi",
	// "synthetic:kosarak", "file:/data/bmspos.dat").
	Source string `json:"source"`
	// File is the FIMI blob path relative to the state directory, for
	// datasets persisted by SaveDatasetBlob.
	File string `json:"file,omitempty"`
	// Items is the dataset's declared item universe. The FIMI text format
	// only carries observed ids, so replay pads the parsed blob back to
	// this size (synthetic datasets declare items their transactions may
	// not contain).
	Items int `json:"items,omitempty"`
	// Synthetic regenerates the dataset instead of reading a blob.
	Synthetic *SyntheticRecord `json:"synthetic,omitempty"`
}

// SyntheticRecord pins a synthetic generator invocation; regeneration with
// the same kind/scale/seed is deterministic.
type SyntheticRecord struct {
	Kind  string `json:"kind"`
	Scale int    `json:"scale,omitempty"`
	Seed  uint64 `json:"seed,omitempty"`
}

// AppendRecord describes one admitted dataset append delta: the transactions
// themselves, so replay extends the restored dataset in admitted order and
// recovers the exact post-append counts.
type AppendRecord struct {
	// Name is the catalog key of the dataset appended to.
	Name string `json:"name"`
	// Seq is the 1-based per-dataset append sequence number. Appends to
	// different datasets may interleave arbitrarily in the WAL (each dataset
	// has its own ordering domain), but each dataset's subsequence must be
	// contiguous — replay checks it. Zero marks a record journalled before
	// sequence numbers existed; replay skips the check for those.
	Seq uint64 `json:"seq,omitempty"`
	// Records are the appended transactions.
	Records [][]int32 `json:"records"`
}

// MonitorRecord pins one registered SVT threshold monitor. Everything that
// shapes the monitor's verdict stream is here — including the per-monitor
// noise seed — so replaying the event stream reproduces the verdict history
// byte for byte.
type MonitorRecord struct {
	// ID is the server-assigned monitor id ("m1", "m2", ...).
	ID string `json:"id"`
	// Tenant is the budget the monitor's epsilon was charged to.
	Tenant string `json:"tenant"`
	// Dataset is the catalog key the monitor watches.
	Dataset string `json:"dataset"`
	// Item is the item id whose count is compared against the threshold.
	Item int32 `json:"item"`
	// Threshold is the public comparison threshold.
	Threshold float64 `json:"threshold"`
	// Epsilon is the monitor's total privacy budget.
	Epsilon float64 `json:"epsilon"`
	// MaxAnswers caps how many above-threshold verdicts the monitor may
	// release before retiring (the SVT answer budget k).
	MaxAnswers int `json:"max_answers"`
	// Adaptive selects Adaptive-SVT-with-Gap over plain SVT-with-Gap.
	Adaptive bool `json:"adaptive,omitempty"`
	// Monotonic records that the watched query is monotone (it is: a
	// sensitivity-1 counting query), halving the query-side noise scale.
	Monotonic bool `json:"monotonic,omitempty"`
	// Seed seeds the monitor's private noise stream.
	Seed uint64 `json:"seed"`
}

// Event is one replayed catalog-stream event. Exactly one field is non-nil.
// Order matters and is preserved through snapshots: a monitor registered
// between two appends must only see the later one replayed into its verdict
// stream.
type Event struct {
	Dataset *DatasetRecord
	Append  *AppendRecord
	Monitor *MonitorRecord
}

// snapshotJSON is the on-disk snapshot schema.
type snapshotJSON struct {
	Version int `json:"version"`
	// Gen is the generation of the WAL segment started after this snapshot;
	// a WAL with an older generation is already folded in.
	Gen      uint64                `json:"gen"`
	Tenants  map[string]tenantJSON `json:"tenants"`
	Datasets []DatasetRecord       `json:"datasets"`
	// Events is the ordered catalog event stream (registrations, appends,
	// monitors). Datasets above is kept redundantly so snapshots stay
	// readable by event-unaware tooling; a snapshot without Events (written
	// before streaming existed) falls back to Datasets.
	Events []eventJSON `json:"events,omitempty"`
}

// eventJSON is one snapshot event; exactly one field is set.
type eventJSON struct {
	Dataset *DatasetRecord `json:"dataset,omitempty"`
	Append  *AppendRecord  `json:"append,omitempty"`
	Monitor *MonitorRecord `json:"monitor,omitempty"`
}

type tenantJSON struct {
	// Charges is the expenditure log aggregated by label, label-sorted.
	Charges []chargeJSON `json:"charges"`
	// ChargeCount is the number of originally admitted charges.
	ChargeCount int `json:"charge_count"`
}

// TenantState is one tenant's replayed spending state.
type TenantState struct {
	// Charges is the expenditure log to restore. Charges replayed from the
	// WAL keep their admission order; charges folded through a snapshot are
	// aggregated by label.
	Charges []accountant.Charge
	// ChargeCount is the number of originally admitted charges.
	ChargeCount int
}

// State is everything the log knows, for the serving layer to restore at
// startup.
type State struct {
	// Tenants maps tenant id to its spending state.
	Tenants map[string]TenantState
	// Datasets lists the registered datasets in registration order (the
	// dataset events of Events, kept for callers that only need the catalog).
	Datasets []DatasetRecord
	// Events is the full ordered catalog event stream: registrations,
	// appends and monitor registrations, in admitted order.
	Events []Event
}

// tenantAgg accumulates one tenant's state inside the log.
type tenantAgg struct {
	charges []accountant.Charge // in replay/commit order; labels may repeat
	count   int
}

// Log is the durable state log: replayed state plus an append channel for
// new mutations. All methods are safe for concurrent use.
//
// Locking: mu guards the in-memory aggregate and the append buffer and is
// held only for memory work, so the append hot path never waits on disk in
// the batched fsync modes. ioMu serializes the file operations (drains,
// compaction, close) and is always acquired before mu. A failed write or
// fsync marks the log dead (sticky err): durability is gone until the log
// is reopened, further buffered bytes are dropped rather than appended
// after a possibly torn write, and Err surfaces the condition for the
// serving layer to page on.
type Log struct {
	dir  string
	opts Options

	// ioMu serializes file I/O; acquired before mu.
	ioMu     sync.Mutex
	f        *os.File
	lock     *os.File // flock on the state directory (nil on non-unix)
	drainBuf []byte   // reusable drain scratch, guarded by ioMu

	mu      sync.Mutex
	buf     bytes.Buffer // pending WAL bytes, drained by the flusher
	pending int          // records in buf
	walRecs int          // records in the WAL segment (drained + pending)
	gen     uint64       // current WAL segment generation
	tenants map[string]*tenantAgg
	events  []Event // ordered catalog event stream (datasets, appends, monitors)
	dsNames map[string]bool
	err     error // sticky I/O error; non-nil means the log is dead
	closed  bool  // appends refused (set at the start of shutdown)
	// fileClosed guards late public Compact calls from writing to a closed
	// fd; set once the WAL file is closed.
	fileClosed bool

	kick      chan struct{}
	done      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once

	// metrics holds the optional observability hooks (atomic so SetMetrics
	// cannot race the already-running flusher goroutine).
	metrics atomic.Pointer[Metrics]
}

// Metrics holds optional observability hooks the serving layer wires into
// the log — the WAL and snapshotting were previously a black box at runtime,
// and fsync stalls are the classic hidden tail-latency source. Every field
// may be nil. Callbacks must be fast and must not call back into the log.
type Metrics struct {
	// ObserveFsync is called with the duration of every WAL write+fsync
	// drain (the batched group fsync, or the synchronous FsyncAlways write).
	ObserveFsync func(d time.Duration)
	// ObserveCompaction is called with the duration of every snapshot
	// compaction (marshal, atomic install, WAL truncate).
	ObserveCompaction func(d time.Duration)
}

// SetMetrics installs the observability hooks. Safe to call at any time;
// typically once, right after Open.
func (l *Log) SetMetrics(m Metrics) { l.metrics.Store(&m) }

// Pending returns the number of journalled records buffered in memory
// awaiting the next drain to disk — the WAL queue depth. A persistently
// large value means the flusher is not keeping up with admission traffic.
func (l *Log) Pending() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.pending
}

// Generation returns the current WAL segment generation; it increments on
// every snapshot compaction, so it doubles as a compaction counter.
func (l *Log) Generation() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.gen
}

// Open opens (creating if necessary) the state directory, loads the
// snapshot, replays the WAL — recovering a torn tail by truncating to the
// last complete record and discarding a stale-generation segment left by a
// crash mid-compaction — and returns a log ready for appends. The replayed
// state is available from State.
func Open(dir string, opts Options) (*Log, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if dir == "" {
		return nil, errors.New("persist: state directory must be non-empty")
	}
	if err := os.MkdirAll(filepath.Join(dir, datasetDirName), 0o755); err != nil {
		return nil, fmt.Errorf("persist: creating state directory: %w", err)
	}
	l := &Log{
		dir:     dir,
		opts:    opts,
		tenants: make(map[string]*tenantAgg),
		dsNames: make(map[string]bool),
		kick:    make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	// One process per state directory: a second concurrent opener would
	// replay the same spent budgets into its own accountants (double-spend)
	// and corrupt the WAL with interleaved appends.
	lock, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	l.lock = lock
	// A crash while a blob was written leaves its temp behind, up to an
	// upload's size each. Only this process may write here now.
	if err := removeBlobTemps(filepath.Join(dir, datasetDirName)); err != nil {
		l.unlock()
		return nil, err
	}

	snapGen, err := l.loadSnapshot()
	if err != nil {
		l.unlock()
		return nil, err
	}
	l.gen = snapGen

	f, err := os.OpenFile(l.walPath(), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		l.unlock()
		return nil, fmt.Errorf("persist: opening WAL: %w", err)
	}
	l.f = f
	if err := l.replayWAL(snapGen); err != nil {
		f.Close()
		l.unlock()
		return nil, err
	}

	l.wg.Add(1)
	go l.flusher()
	return l, nil
}

func (l *Log) walPath() string      { return filepath.Join(l.dir, walName) }
func (l *Log) snapshotPath() string { return filepath.Join(l.dir, snapshotName) }

// Dir returns the state directory the log was opened on.
func (l *Log) Dir() string { return l.dir }

// BlobPath resolves a DatasetRecord's blob file against the state directory.
func (l *Log) BlobPath(rec DatasetRecord) string {
	return filepath.Join(l.dir, filepath.FromSlash(rec.File))
}

// loadSnapshot folds snapshot.json (if any) into the aggregate and returns
// the generation of the WAL segment the snapshot expects next.
func (l *Log) loadSnapshot() (uint64, error) {
	data, err := os.ReadFile(l.snapshotPath())
	if errors.Is(err, os.ErrNotExist) {
		return 1, nil
	}
	if err != nil {
		return 0, fmt.Errorf("persist: reading snapshot: %w", err)
	}
	var snap snapshotJSON
	if err := json.Unmarshal(data, &snap); err != nil {
		return 0, fmt.Errorf("persist: corrupt snapshot %s: %w", l.snapshotPath(), err)
	}
	if snap.Version != 1 {
		return 0, fmt.Errorf("persist: snapshot version %d not supported", snap.Version)
	}
	for tenant, ts := range snap.Tenants {
		agg := &tenantAgg{count: ts.ChargeCount}
		for _, c := range ts.Charges {
			agg.charges = append(agg.charges, accountant.Charge{Label: c.Label, Epsilon: c.Epsilon})
		}
		l.tenants[tenant] = agg
	}
	if len(snap.Events) > 0 {
		for _, ev := range snap.Events {
			switch {
			case ev.Dataset != nil:
				if !l.dsNames[ev.Dataset.Name] {
					l.dsNames[ev.Dataset.Name] = true
					l.events = append(l.events, Event{Dataset: ev.Dataset})
				}
			case ev.Append != nil:
				l.events = append(l.events, Event{Append: ev.Append})
			case ev.Monitor != nil:
				l.events = append(l.events, Event{Monitor: ev.Monitor})
			}
		}
	} else {
		// Pre-streaming snapshot: the catalog is just its registrations.
		for i := range snap.Datasets {
			rec := snap.Datasets[i]
			if !l.dsNames[rec.Name] {
				l.dsNames[rec.Name] = true
				l.events = append(l.events, Event{Dataset: &rec})
			}
		}
	}
	if snap.Gen == 0 {
		snap.Gen = 1
	}
	return snap.Gen, nil
}

// replayWAL scans the open WAL file, applying records to the aggregate. It
// truncates a torn tail, discards a stale-generation segment, and leaves the
// file positioned for appends.
func (l *Log) replayWAL(snapGen uint64) error {
	info, err := l.f.Stat()
	if err != nil {
		return fmt.Errorf("persist: stat WAL: %w", err)
	}
	if info.Size() == 0 {
		return l.beginSegment(snapGen)
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("persist: seeking WAL: %w", err)
	}

	br := bufio.NewReaderSize(l.f, 1<<20)
	var (
		offset int64 // end of the line just read
		good   int64 // end of the last fully applied record
		first  = true
		stale  bool
		nrec   int
	)
	for {
		line, err := br.ReadBytes('\n')
		switch {
		case err == io.EOF && len(line) == 0:
			// Clean end of file.
			return l.finishReplay(good, stale, snapGen, nrec)
		case err == io.EOF:
			// Torn final write: no trailing newline. Drop the partial line.
			return l.finishReplay(good, stale, snapGen, nrec)
		case err != nil:
			return fmt.Errorf("persist: reading WAL: %w", err)
		}
		lineStart := offset
		offset += int64(len(line))

		var rec record
		if uerr := json.Unmarshal(line, &rec); uerr != nil {
			// A crash tears only the tail, so an unparsable line is
			// recoverable iff nothing readable follows it. If later lines
			// still parse, this is mid-file corruption — truncating there
			// would silently refund every later admitted charge, so refuse
			// to open instead (the unsafe direction for a privacy
			// accountant is never the default).
			for {
				rest, rerr := br.ReadBytes('\n')
				if len(rest) > 0 {
					var probe record
					if json.Unmarshal(rest, &probe) == nil {
						return fmt.Errorf("persist: WAL %s corrupt at byte %d: valid records follow an unparsable line; refusing to replay a hole in the charge history", l.walPath(), lineStart)
					}
				}
				if rerr != nil {
					break
				}
			}
			return l.finishReplay(good, stale, snapGen, nrec)
		}
		if first {
			first = false
			if rec.Kind == "begin" {
				if rec.Gen < snapGen {
					// Crash between snapshot rename and WAL truncate: this
					// whole segment is already folded into the snapshot.
					stale = true
				}
				good = offset
				continue
			}
			// Headerless segment (shouldn't happen, but don't lose data):
			// treat it as the snapshot's expected generation.
		}
		if stale {
			good = offset
			continue
		}
		if err := l.apply(rec); err != nil {
			return err
		}
		nrec++
		good = offset
	}
}

// finishReplay truncates the WAL to the last complete record (or rewrites
// the segment header when the segment was stale) and positions the file for
// appends.
func (l *Log) finishReplay(good int64, stale bool, snapGen uint64, nrec int) error {
	if stale {
		// Discard the already-compacted segment and start a fresh one.
		if err := l.truncateTo(0); err != nil {
			return err
		}
		return l.beginSegment(snapGen)
	}
	if err := l.truncateTo(good); err != nil {
		return err
	}
	if good == 0 {
		// Nothing usable survived (e.g. a torn very first line).
		return l.beginSegment(snapGen)
	}
	l.walRecs = nrec
	return nil
}

func (l *Log) truncateTo(n int64) error {
	if err := l.f.Truncate(n); err != nil {
		return fmt.Errorf("persist: truncating WAL: %w", err)
	}
	if _, err := l.f.Seek(n, io.SeekStart); err != nil {
		return fmt.Errorf("persist: seeking WAL: %w", err)
	}
	return nil
}

// writeSegmentHeader writes (and, unless fsync is off, syncs) the segment
// header record for generation gen — the one place the header format lives,
// shared by Open-time segment starts and compaction.
func (l *Log) writeSegmentHeader(gen uint64) error {
	line, err := marshalLine(record{Kind: "begin", Gen: gen})
	if err != nil {
		return err
	}
	if _, err := l.f.Write(line); err != nil {
		return fmt.Errorf("persist: writing WAL segment header: %w", err)
	}
	if l.opts.Fsync != FsyncOff {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("persist: syncing WAL: %w", err)
		}
	}
	return nil
}

// beginSegment starts segment gen during Open (single-threaded: no locks).
func (l *Log) beginSegment(gen uint64) error {
	l.gen = gen
	l.walRecs = 0
	return l.writeSegmentHeader(gen)
}

// apply folds one replayed record into the aggregate.
func (l *Log) apply(rec record) error {
	switch rec.Kind {
	case "charge":
		if rec.Tenant == "" || len(rec.Charges) == 0 {
			return fmt.Errorf("persist: corrupt charge record (tenant %q, %d charges)", rec.Tenant, len(rec.Charges))
		}
		agg := l.tenant(rec.Tenant)
		for _, c := range rec.Charges {
			if !(c.Epsilon > 0) {
				return fmt.Errorf("persist: corrupt charge record: epsilon %v (tenant %q)", c.Epsilon, rec.Tenant)
			}
			agg.charges = append(agg.charges, accountant.Charge{Label: c.Label, Epsilon: c.Epsilon})
			agg.count++
		}
	case "dataset":
		if rec.Dataset == nil || rec.Dataset.Name == "" {
			return errors.New("persist: corrupt dataset record")
		}
		if !l.dsNames[rec.Dataset.Name] {
			l.dsNames[rec.Dataset.Name] = true
			l.events = append(l.events, Event{Dataset: rec.Dataset})
		}
	case "append":
		if rec.Append == nil || rec.Append.Name == "" {
			return errors.New("persist: corrupt append record")
		}
		// Membership is not checked: the dataset may be catalogued outside
		// the journal (Config.Datasets), which the serving layer restores
		// before replaying events.
		l.events = append(l.events, Event{Append: rec.Append})
	case "monitor":
		if rec.Monitor == nil || rec.Monitor.ID == "" || rec.Monitor.Dataset == "" {
			return errors.New("persist: corrupt monitor record")
		}
		l.events = append(l.events, Event{Monitor: rec.Monitor})
	case "begin":
		// A second header mid-file is harmless; ignore it.
	default:
		return fmt.Errorf("persist: unknown WAL record kind %q", rec.Kind)
	}
	return nil
}

func (l *Log) tenant(name string) *tenantAgg {
	agg, ok := l.tenants[name]
	if !ok {
		agg = &tenantAgg{}
		l.tenants[name] = agg
	}
	return agg
}

// State returns a copy of the replayed-plus-appended state. Call it right
// after Open to restore the serving layer.
func (l *Log) State() State {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := State{Tenants: make(map[string]TenantState, len(l.tenants))}
	for tenant, agg := range l.tenants {
		charges := make([]accountant.Charge, len(agg.charges))
		copy(charges, agg.charges)
		st.Tenants[tenant] = TenantState{Charges: charges, ChargeCount: agg.count}
	}
	st.Events = append(st.Events, l.events...)
	st.Datasets = datasetList(l.events)
	return st
}

// datasetList projects the registration events out of an event stream.
func datasetList(events []Event) []DatasetRecord {
	var out []DatasetRecord
	for _, ev := range events {
		if ev.Dataset != nil {
			out = append(out, *ev.Dataset)
		}
	}
	return out
}

// Err returns the sticky I/O error, if any. A non-nil Err means the log is
// dead: the in-memory service keeps running, but nothing further reaches
// disk until the log is reopened (appending past a possibly torn write
// would strand records beyond the point replay's tail recovery can reach).
// The serving layer surfaces it through /healthz and /metrics; operators
// should treat it as a page.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

func marshalLine(rec record) ([]byte, error) {
	data, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("persist: encoding WAL record: %w", err)
	}
	return append(data, '\n'), nil
}

// AppendCharge journals one admitted charge batch for tenant. It is the
// accountant journal hook: called iff the charge committed, in commit order.
// In FsyncBatch/FsyncOff mode it only buffers (the flusher drains within one
// flush interval); in FsyncAlways mode it writes and syncs before returning.
func (l *Log) AppendCharge(tenant string, charges []accountant.Charge) {
	if len(charges) == 0 {
		return
	}
	rec := record{Kind: "charge", Tenant: tenant, Charges: make([]chargeJSON, len(charges))}
	for i, c := range charges {
		rec.Charges[i] = chargeJSON{Label: c.Label, Epsilon: c.Epsilon}
	}
	line, err := marshalLine(rec)
	if err != nil {
		l.stickyErr(err)
		return
	}
	l.append(line, func() bool {
		agg := l.tenant(tenant)
		agg.charges = append(agg.charges, charges...)
		agg.count += len(charges)
		return true
	})
}

// AppendDataset journals one dataset registration. Call SaveDatasetBlob
// first for blob-backed records so the file the record references exists
// before the record does.
func (l *Log) AppendDataset(rec DatasetRecord) error {
	if rec.Name == "" {
		return errors.New("persist: dataset record needs a name")
	}
	line, err := marshalLine(record{Kind: "dataset", Dataset: &rec})
	if err != nil {
		return err
	}
	var dup bool
	enqueued := l.append(line, func() bool {
		if l.dsNames[rec.Name] {
			dup = true
			return false
		}
		l.dsNames[rec.Name] = true
		l.events = append(l.events, Event{Dataset: &rec})
		return true
	})
	switch {
	case dup:
		return fmt.Errorf("persist: dataset %q already journalled", rec.Name)
	case !enqueued:
		return l.deadOrClosed()
	}
	return nil
}

// AppendDelta journals one admitted dataset append. Like AppendDataset it is
// called before the catalog applies the delta: the WAL is the source of
// truth, so a journalled-but-unapplied append (a crash in between) replays
// into the same state the uninterrupted run would have reached, while an
// applied-but-unjournalled one would silently shrink the dataset on restart.
func (l *Log) AppendDelta(rec AppendRecord) error {
	if rec.Name == "" {
		return errors.New("persist: append record needs a dataset name")
	}
	line, err := marshalLine(record{Kind: "append", Append: &rec})
	if err != nil {
		return err
	}
	if !l.append(line, func() bool {
		l.events = append(l.events, Event{Append: &rec})
		return true
	}) {
		return l.deadOrClosed()
	}
	return nil
}

// AppendMonitor journals one registered threshold monitor. Called after the
// monitor's epsilon was charged (the charge has its own WAL record) and
// before verdicts are released.
func (l *Log) AppendMonitor(rec MonitorRecord) error {
	if rec.ID == "" || rec.Dataset == "" {
		return errors.New("persist: monitor record needs an id and a dataset")
	}
	line, err := marshalLine(record{Kind: "monitor", Monitor: &rec})
	if err != nil {
		return err
	}
	if !l.append(line, func() bool {
		l.events = append(l.events, Event{Monitor: &rec})
		return true
	}) {
		return l.deadOrClosed()
	}
	return nil
}

// deadOrClosed renders the refusal reason of a declined append.
func (l *Log) deadOrClosed() error {
	if err := l.Err(); err != nil {
		return fmt.Errorf("persist: log is dead: %w", err)
	}
	return errors.New("persist: log is closed")
}

// append runs update under the state lock and, when it returns true,
// enqueues line for the WAL. It reports whether the record was enqueued
// (false when the log is closed or update declined). In FsyncAlways mode the
// record is written and synced before append returns; otherwise the flusher
// drains it within one flush interval.
func (l *Log) append(line []byte, update func() bool) bool {
	always := l.opts.Fsync == FsyncAlways
	if always {
		// ioMu before mu, the global lock order, so the synchronous drain
		// below runs with no other file op interleaved.
		l.ioMu.Lock()
		defer l.ioMu.Unlock()
	}
	l.mu.Lock()
	// A dead log (sticky I/O error) refuses appends like a closed one: the
	// record would only be dropped by the next drain, and AppendDataset
	// callers must see the failure rather than a phantom success.
	if l.closed || l.err != nil || !update() {
		l.mu.Unlock()
		return false
	}
	l.buf.Write(line)
	l.pending++
	l.walRecs++
	l.mu.Unlock()

	if always {
		l.drainIO(true)
		// A failed synchronous drain set the sticky error just now (an
		// older failure would have refused the append above) — report it so
		// AppendDataset callers can roll back instead of claiming
		// durability that does not exist.
		return l.Err() == nil
	}
	select {
	case l.kick <- struct{}{}:
	default:
	}
	return true
}

// drainIO moves the pending buffer to the WAL file, fsyncing when sync is
// set (and the mode is not FsyncOff). Caller holds ioMu. On a write or sync
// failure the log goes dead: the error sticks, the buffered bytes are
// dropped, and every later append is discarded — after a possibly torn
// write, appending more bytes would put records beyond the tear where
// replay's tail recovery could never reach them.
func (l *Log) drainIO(sync bool) {
	l.mu.Lock()
	if l.err != nil || l.buf.Len() == 0 {
		// Nothing to write: every drain that writes also syncs, so an
		// empty-buffer sync would be redundant — skipping it keeps an idle
		// server from fsyncing on every flusher tick.
		l.buf.Reset()
		l.pending = 0
		l.mu.Unlock()
		return
	}
	l.drainBuf = append(l.drainBuf[:0], l.buf.Bytes()...)
	l.buf.Reset()
	l.pending = 0
	l.mu.Unlock()

	start := time.Now()
	var err error
	if len(l.drainBuf) > 0 {
		if _, werr := l.f.Write(l.drainBuf); werr != nil {
			err = fmt.Errorf("persist: writing WAL: %w", werr)
		}
	}
	if err == nil && sync && l.opts.Fsync != FsyncOff {
		if serr := l.f.Sync(); serr != nil {
			err = fmt.Errorf("persist: syncing WAL: %w", serr)
		}
	}
	if m := l.metrics.Load(); m != nil && m.ObserveFsync != nil {
		m.ObserveFsync(time.Since(start))
	}
	if cap(l.drainBuf) > maxRetainedDrainBuf {
		// One oversized drain (a bulk dataset registration, say) would
		// otherwise pin its peak capacity for the life of the log.
		l.drainBuf = nil
	}
	if err != nil {
		l.stickyErr(err)
	}
}

// maxRetainedDrainBuf caps the scratch buffer drainIO keeps between drains;
// a drain that needed more gets a fresh allocation and the oversized buffer
// is released to the collector.
const maxRetainedDrainBuf = 1 << 20

func errOnce(existing, next error) error {
	if existing != nil {
		return existing
	}
	return next
}

func (l *Log) stickyErr(err error) {
	l.mu.Lock()
	l.err = errOnce(l.err, err)
	l.mu.Unlock()
}

// flusher drains the append buffer on a ticker (and on kicks), fsyncing per
// the mode and compacting when the segment grows past CompactEvery records.
func (l *Log) flusher() {
	defer l.wg.Done()
	ticker := time.NewTicker(l.opts.FlushInterval)
	defer ticker.Stop()
	for {
		select {
		case <-l.done:
			return
		case <-ticker.C:
		case <-l.kick:
		}
		l.ioMu.Lock()
		l.drainIO(true)
		l.mu.Lock()
		compact := l.opts.CompactEvery > 0 && l.walRecs >= l.opts.CompactEvery
		l.mu.Unlock()
		if compact {
			l.compactIO()
		}
		l.ioMu.Unlock()
	}
}

// Flush synchronously drains the pending buffer to disk (fsyncing unless the
// mode is FsyncOff) and reports the sticky error state.
func (l *Log) Flush() error {
	l.ioMu.Lock()
	l.drainIO(true)
	l.ioMu.Unlock()
	return l.Err()
}

// Compact synchronously folds the current state into a fresh snapshot and
// truncates the WAL.
func (l *Log) Compact() error {
	l.ioMu.Lock()
	l.drainIO(true)
	l.compactIO()
	l.ioMu.Unlock()
	return l.Err()
}

// compactIO writes snapshot.json atomically (temp + rename) from the
// in-memory aggregate, then starts a fresh WAL segment with the next
// generation. Caller holds ioMu (which alone excludes drains) but NOT l.mu:
// the state lock is held only to copy the aggregate and to publish the new
// segment counters, so charge admissions never stall behind the snapshot's
// disk writes. Records appended while the snapshot is being written stay in
// the buffer (drains need ioMu) and land in the fresh segment afterwards —
// counted once, by the segment, not the snapshot.
func (l *Log) compactIO() {
	l.mu.Lock()
	if l.err != nil || l.pending > 0 || l.fileClosed {
		// A dead log must not compact (its file is past a torn write), and
		// an undrained buffer would replay its records into the
		// post-snapshot segment, double-counting them — the snapshot built
		// from the in-memory aggregate would already include them.
		l.mu.Unlock()
		return
	}
	start := time.Now()
	defer func() {
		if m := l.metrics.Load(); m != nil && m.ObserveCompaction != nil {
			m.ObserveCompaction(time.Since(start))
		}
	}()
	nextGen := l.gen + 1
	snap := snapshotJSON{
		Version: 1,
		Gen:     nextGen,
		Tenants: make(map[string]tenantJSON, len(l.tenants)),
	}
	for tenant, agg := range l.tenants {
		byLabel := make(map[string]float64, 8)
		for _, c := range agg.charges {
			byLabel[c.Label] += c.Epsilon
		}
		labels := make([]string, 0, len(byLabel))
		for label := range byLabel {
			labels = append(labels, label)
		}
		sort.Strings(labels)
		ts := tenantJSON{Charges: make([]chargeJSON, len(labels)), ChargeCount: agg.count}
		for i, label := range labels {
			ts.Charges[i] = chargeJSON{Label: label, Epsilon: byLabel[label]}
		}
		snap.Tenants[tenant] = ts
	}
	snap.Datasets = datasetList(l.events)
	snap.Events = make([]eventJSON, len(l.events))
	for i, ev := range l.events {
		snap.Events[i] = eventJSON{Dataset: ev.Dataset, Append: ev.Append, Monitor: ev.Monitor}
	}
	l.mu.Unlock()

	data, err := json.Marshal(&snap)
	if err != nil {
		l.stickyErr(fmt.Errorf("persist: encoding snapshot: %w", err))
		return
	}
	tmp := l.snapshotPath() + ".tmp"
	if err := writeFileSync(tmp, data, l.opts.Fsync != FsyncOff); err != nil {
		l.stickyErr(err)
		return
	}
	if err := os.Rename(tmp, l.snapshotPath()); err != nil {
		l.stickyErr(fmt.Errorf("persist: installing snapshot: %w", err))
		return
	}
	syncDir(l.dir)

	// The snapshot now covers everything; retire the segment. A crash right
	// here leaves a stale-generation WAL that Open discards by generation.
	if err := l.truncateTo(0); err != nil {
		l.stickyErr(err)
		return
	}
	if err := l.writeSegmentHeader(nextGen); err != nil {
		l.stickyErr(err)
		return
	}
	l.mu.Lock()
	l.gen = nextGen
	// Records buffered while the snapshot was written belong to the new
	// segment and were not in the snapshot's state copy.
	l.walRecs = l.pending
	l.mu.Unlock()
}

// Blob is a dataset blob being written: a temp file in the state
// directory's datasets/ folder, installed as <name>.fimi by Commit or
// removed by Abort. Open removes the temps a crash leaves behind; no WAL or
// snapshot record ever references one. A Blob is not safe for concurrent
// use.
type Blob struct {
	l   *Log
	f   *os.File
	err error // the first failure, which Commit reports
}

// NewBlob starts a blob. Its writes never fail: the first error is kept,
// later writes are dropped, and Commit reports it, so an upload can tee the
// text it parses into a blob and tell a disk fault from a client one.
func (l *Log) NewBlob() *Blob {
	f, err := os.CreateTemp(filepath.Join(l.dir, datasetDirName), "*.tmp")
	if err != nil {
		err = fmt.Errorf("persist: creating dataset blob: %w", err)
	}
	return &Blob{l: l, f: f, err: err}
}

// Write appends p to the blob; see NewBlob for its errors.
func (b *Blob) Write(p []byte) (int, error) {
	if b.err == nil {
		if _, err := b.f.Write(p); err != nil {
			b.err = fmt.Errorf("persist: writing dataset blob: %w", err)
		}
	}
	return len(p), nil
}

// Commit installs the blob as datasets/<name>.fimi and returns the
// DatasetRecord.File value referencing it. The file is synced (unless fsync
// is off), renamed into place and its directory synced before Commit
// returns, so a subsequent AppendDataset never references a file that
// might vanish. On failure the temp is removed.
func (b *Blob) Commit(name string) (string, error) {
	if b.err != nil {
		b.Abort()
		return "", b.err
	}
	if b.f == nil {
		return "", errors.New("persist: dataset blob already closed")
	}
	f, tmp := b.f, b.f.Name()
	b.f = nil
	dir := filepath.Join(b.l.dir, datasetDirName)
	var err error
	if b.l.opts.Fsync != FsyncOff {
		err = f.Sync()
	}
	if e := f.Close(); err == nil {
		err = e
	}
	if err == nil {
		err = os.Rename(tmp, filepath.Join(dir, name+".fimi"))
	}
	if err != nil {
		_ = os.Remove(tmp)
		return "", fmt.Errorf("persist: installing dataset blob %q: %w", name, err)
	}
	syncDir(dir)
	return datasetDirName + "/" + name + ".fimi", nil
}

// Abort removes an uncommitted blob. After Commit it does nothing.
func (b *Blob) Abort() {
	if b.f != nil {
		b.f.Close()
		_ = os.Remove(b.f.Name())
		b.f = nil
	}
}

// SaveDatasetBlob persists db as a FIMI blob under the state directory and
// returns the DatasetRecord.File value referencing it, streaming WriteFIMI
// into a Blob and committing it under name.
func (l *Log) SaveDatasetBlob(name string, db *dataset.Transactions) (string, error) {
	b := l.NewBlob()
	defer b.Abort()
	bw := bufio.NewWriterSize(b, 64<<10)
	if err := dataset.WriteFIMI(bw, db); err != nil {
		return "", fmt.Errorf("persist: encoding dataset blob %q: %w", name, err)
	}
	_ = bw.Flush() // a Blob's writes never fail
	return b.Commit(name)
}

// removeBlobTemps deletes the blob temp files in dir, the state directory's
// datasets/ folder.
func removeBlobTemps(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("persist: listing dataset blobs: %w", err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return fmt.Errorf("persist: removing dataset blob temp: %w", err)
			}
		}
	}
	return nil
}

// writeFileSync writes data to path, optionally fsyncing before close.
func writeFileSync(path string, data []byte, sync bool) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("persist: creating %s: %w", path, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("persist: writing %s: %w", path, err)
	}
	if sync {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("persist: syncing %s: %w", path, err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("persist: closing %s: %w", path, err)
	}
	return nil
}

// syncDir best-effort fsyncs a directory so renames into it are durable.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	d.Close()
}

// Close flushes pending records, compacts the WAL into a final snapshot and
// closes the file — the clean-shutdown path. It is idempotent; after Close
// (or Abort) appends are silently dropped.
func (l *Log) Close() error { return l.shutdown(true) }

// Abort flushes pending records and closes the file WITHOUT compacting, so
// the WAL is left exactly as a crashed process would leave it (modulo the
// final flush). The crash-recovery tests use it to simulate a kill; it also
// makes a later Close a no-op.
func (l *Log) Abort() error { return l.shutdown(false) }

func (l *Log) shutdown(compact bool) error {
	var err error
	l.closeOnce.Do(func() {
		close(l.done)
		l.wg.Wait()
		l.ioMu.Lock()
		// Refuse new appends BEFORE the final drain: an append slipping in
		// after the drain copied the buffer would be acknowledged and then
		// silently never written.
		l.mu.Lock()
		l.closed = true
		l.mu.Unlock()
		l.drainIO(true)
		if compact {
			l.compactIO()
		}
		l.mu.Lock()
		err = errOnce(l.err, l.f.Close())
		l.fileClosed = true
		l.mu.Unlock()
		l.unlock()
		l.ioMu.Unlock()
	})
	if err != nil {
		return err
	}
	return l.Err()
}

// unlock releases the state-directory flock (no-op when absent).
func (l *Log) unlock() {
	if l.lock != nil {
		l.lock.Close()
		l.lock = nil
	}
}

// FailForTest marks the log dead with err, as a WAL write/fsync failure
// would. Crash-recovery and fail-closed tests use it to inject the fault;
// production code must never call it.
func (l *Log) FailForTest(err error) { l.stickyErr(err) }
