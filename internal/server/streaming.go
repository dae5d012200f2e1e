package server

// Streaming: appendable datasets and served SVT threshold monitors.
//
// POST /v1/datasets/{name}/append ingests a FIMI-formatted delta and extends
// the dataset's derived state incrementally (store.Append installs a new
// generation; nothing rescans the existing records). POST /v1/monitors
// registers a long-lived threshold query over one item of a dataset: the
// monitor's whole ε is charged once at registration, and every subsequent
// append to the dataset advances the monitor's resumable SVT run by one
// query, streaming the verdict (and, above threshold, the free gap) to SSE
// subscribers on GET /v1/monitors/{id}/stream.
//
// Replay invariant: each dataset's WAL subsequence must equal the order its
// monitors observed the world in. A monitor journalled before an append must
// take its registration-time verdict against the pre-append counts, and each
// append's verdicts against exactly the record count the journal says was
// current. The invariant is per-dataset — a monitor watches one dataset, so
// how appends to *different* datasets interleave in the WAL is immaterial —
// and it is pinned per-dataset: every dataset hashes to one of
// numStreamDomains ordering domains, and the owning domain's mutex
// serializes (journal monitor → register → seq-0 verdict) against (journal
// append → install → fan out verdicts) for its datasets only. Appends carry
// a per-dataset sequence number so replay can check the subsequence is
// contiguous. The derived-state build for an append (tail block copy, count
// deltas, sketch and zone extension) happens in store.PrepareAppend *before*
// the domain lock; only journal + install + delivery run under it, so
// concurrent appends to different datasets overlap their builds and never
// contend. With each monitor's noise stream a pure function of its
// journalled seed, a restart replays the event stream and reproduces every
// verdict bit for bit.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"github.com/freegap/freegap/internal/core"
	"github.com/freegap/freegap/internal/dataset"
	"github.com/freegap/freegap/internal/engine"
	"github.com/freegap/freegap/internal/persist"
	"github.com/freegap/freegap/internal/rng"
	"github.com/freegap/freegap/internal/store"
)

// mechMonitors is the metrics/accounting label for the monitor endpoints; a
// monitor's one-time ε charge appears under it in the tenant's breakdown.
const mechMonitors = "monitors"

// monitorSubBuffer is the per-subscriber verdict channel depth. A subscriber
// that falls this far behind is dropped (its channel closed, and
// freegap_monitor_subscribers_dropped_total incremented) rather than allowed
// to stall appends; the client reconnects and replays history.
const monitorSubBuffer = 64

// numStreamDomains is the number of per-dataset write-ordering domains.
// Power of two so the domain pick is a mask; 32 keeps two datasets' odds of
// colliding on one domain low without bloating the Server struct.
const numStreamDomains = 32

// streamDomain is one write-ordering domain: it owns journal → install →
// deliver order for every dataset that hashes to it. mu is the only lock an
// append to those datasets serializes on — appends to datasets in other
// domains proceed concurrently.
type streamDomain struct {
	mu sync.Mutex
	// watchers maps a dataset name to the monitors watching it, in
	// registration order. Only datasets owned by this domain appear.
	watchers map[string][]*monitor
	// seqs maps a dataset name to its last journalled per-dataset append
	// sequence number (see persist.AppendRecord.Seq).
	seqs map[string]uint64
}

// domain returns the write-ordering domain that owns the named dataset
// (FNV-1a over the name, masked to the domain array).
func (s *Server) domain(dataset string) *streamDomain {
	h := uint64(14695981039346656037)
	for i := 0; i < len(dataset); i++ {
		h ^= uint64(dataset[i])
		h *= 1099511628211
	}
	return &s.domains[h&(numStreamDomains-1)]
}

// monitor is one registered threshold monitor: the immutable registration
// parameters plus the resumable SVT run, its verdict history, and the live
// SSE subscribers. mu guards the mutable tail; the registration fields are
// written once, under the owning dataset's domain lock, before the monitor
// is published.
type monitor struct {
	id        string
	tenant    string
	dataset   string
	item      int32
	threshold float64
	epsilon   float64
	maxAns    int
	adaptive  bool
	seed      uint64

	mu       sync.Mutex
	stream   *core.SVTStream
	verdicts []MonitorVerdict
	subs     map[chan MonitorVerdict]struct{}
}

// observe advances the monitor's SVT run by one query (the item's current
// count) and, if the run is still live, records and fans out the verdict.
// records is the dataset record count the query was evaluated at. It also
// returns how many subscribers were dropped for falling behind.
func (m *monitor) observe(count float64, records int) (*MonitorVerdict, int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	item, ok := m.stream.Arrive(count)
	if !ok {
		return nil, 0
	}
	v := MonitorVerdict{
		Monitor:    m.id,
		Seq:        len(m.verdicts),
		Records:    records,
		Above:      item.Above,
		Branch:     item.Branch.String(),
		BudgetUsed: item.BudgetUsed,
		Retired:    m.stream.Done(),
	}
	if item.Above {
		v.Gap = item.Gap
	}
	m.verdicts = append(m.verdicts, v)
	dropped := 0
	for ch := range m.subs {
		select {
		case ch <- v:
		default:
			// The subscriber's buffer is full: drop it instead of blocking
			// the append path. Closing the channel tells its handler to
			// hang up; the client reconnects and replays the history.
			delete(m.subs, ch)
			close(ch)
			dropped++
		}
	}
	return &v, dropped
}

// info snapshots the monitor for the API.
func (m *monitor) info() MonitorInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	return MonitorInfo{
		ID:          m.id,
		Tenant:      m.tenant,
		Dataset:     m.dataset,
		Item:        m.item,
		Threshold:   m.threshold,
		Epsilon:     m.epsilon,
		BudgetSpent: m.stream.Spent(),
		MaxAnswers:  m.maxAns,
		Adaptive:    m.adaptive,
		Verdicts:    len(m.verdicts),
		AboveCount:  m.stream.AboveCount(),
		Retired:     m.stream.Done(),
	}
}

// subscribe registers a new SSE subscriber and returns the verdict history
// it must replay first. History snapshot and registration happen under one
// lock acquisition, so the subscriber sees every verdict exactly once.
func (m *monitor) subscribe() ([]MonitorVerdict, chan MonitorVerdict) {
	m.mu.Lock()
	defer m.mu.Unlock()
	history := append([]MonitorVerdict(nil), m.verdicts...)
	ch := make(chan MonitorVerdict, monitorSubBuffer)
	if m.subs == nil {
		m.subs = make(map[chan MonitorVerdict]struct{})
	}
	m.subs[ch] = struct{}{}
	return history, ch
}

// unsubscribe removes a subscriber registered by subscribe. The channel is
// only closed if observe has not already dropped it for falling behind.
func (m *monitor) unsubscribe(ch chan MonitorVerdict) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.subs[ch]; ok {
		delete(m.subs, ch)
		close(ch)
	}
}

// newMonitorStream builds the monitor's resumable SVT run from its
// registration parameters and journalled seed. Monotonic is always set: the
// monitored query is a single item count, sensitivity-1 and monotone.
func newMonitorStream(rec persist.MonitorRecord) (*core.SVTStream, error) {
	mech := &core.AdaptiveSVTWithGap{
		K:          rec.MaxAnswers,
		Epsilon:    rec.Epsilon,
		Threshold:  rec.Threshold,
		Monotonic:  true,
		MaxAnswers: rec.MaxAnswers,
	}
	if !rec.Adaptive {
		mech.SigmaMultiplier = math.Inf(1) // plain Sparse-Vector-with-Gap
	}
	return core.NewSVTStream(mech, rng.NewXoshiro(rec.Seed))
}

// addMonitor constructs, indexes and publishes a monitor from its journalled
// record: into the cross-domain registry under monMu, and onto the owning
// domain's watcher list. Caller holds d's lock (d owns rec.Dataset), which
// is what orders the monitor's first observation against appends.
func (s *Server) addMonitor(rec persist.MonitorRecord, d *streamDomain) (*monitor, error) {
	stream, err := newMonitorStream(rec)
	if err != nil {
		return nil, fmt.Errorf("server: monitor %q: %w", rec.ID, err)
	}
	m := &monitor{
		id:        rec.ID,
		tenant:    rec.Tenant,
		dataset:   rec.Dataset,
		item:      rec.Item,
		threshold: rec.Threshold,
		epsilon:   rec.Epsilon,
		maxAns:    rec.MaxAnswers,
		adaptive:  rec.Adaptive,
		seed:      rec.Seed,
		stream:    stream,
	}
	s.monMu.Lock()
	if s.monitors == nil {
		s.monitors = make(map[string]*monitor)
	}
	s.monitors[rec.ID] = m
	s.monOrder = append(s.monOrder, m)
	registered := len(s.monitors)
	s.monMu.Unlock()
	d.watchers[rec.Dataset] = append(d.watchers[rec.Dataset], m)
	// Keep the id counter at or above every restored id so new registrations
	// never collide with journalled ones (CAS-max: restores from different
	// domains may race).
	if n, err := strconv.ParseUint(strings.TrimPrefix(rec.ID, "m"), 10, 64); err == nil {
		for {
			cur := s.monNextID.Load()
			if n <= cur || s.monNextID.CompareAndSwap(cur, n) {
				break
			}
		}
	}
	s.monitorsGauge.Set(int64(registered))
	return m, nil
}

// nextMonitorID mints a fresh monitor id. monNextID holds the last-minted
// number, so a plain atomic increment is collision-free without any lock.
func (s *Server) nextMonitorID() string {
	return fmt.Sprintf("m%d", s.monNextID.Add(1))
}

// evaluateMonitor feeds one monitor the item's current count from the
// dataset entry's pinned generation view.
func (s *Server) evaluateMonitor(m *monitor, e *store.Entry) *MonitorVerdict {
	v := e.View()
	counts := v.Arena().Counts()
	count := 0.0
	if int(m.item) < len(counts) {
		count = counts[m.item]
	}
	verdict, dropped := m.observe(count, v.Dataset().NumRecords())
	if verdict != nil {
		s.monitorVerdicts.Inc()
	}
	if dropped > 0 {
		s.monitorSubsDropped.Add(uint64(dropped))
	}
	return verdict
}

// deliverLocked advances every monitor watching the dataset by one query and
// returns how many verdicts were released. Caller holds d's lock, so the
// verdicts land in the dataset's journal order.
func (d *streamDomain) deliverLocked(s *Server, e *store.Entry) int {
	n := 0
	for _, m := range d.watchers[e.Name()] {
		if s.evaluateMonitor(m, e) != nil {
			n++
		}
	}
	return n
}

// restoreAppend replays one journalled dataset delta at startup, including
// the verdicts it triggered on monitors restored earlier in the event
// stream. Replay is single-threaded, but it still runs under the owning
// domain's lock so the per-dataset sequence check and watcher lists follow
// one discipline everywhere. A sequence gap means the WAL lost or reordered
// an append record — fail the restore rather than serve silently diverged
// counts.
func (s *Server) restoreAppend(rec persist.AppendRecord) error {
	d := s.domain(rec.Name)
	d.mu.Lock()
	defer d.mu.Unlock()
	want := d.seqs[rec.Name] + 1
	if rec.Seq != 0 && rec.Seq != want {
		return fmt.Errorf("server: append to %q out of order: journalled seq %d, expected %d", rec.Name, rec.Seq, want)
	}
	// Seq 0 marks a record journalled before sequence numbers existed; it
	// still advances the counter so mixed-age WALs stay contiguous.
	d.seqs[rec.Name] = want
	e, err := s.datasets.Append(rec.Name, rec.Records)
	if err != nil {
		return fmt.Errorf("server: restoring append to %q: %w", rec.Name, err)
	}
	d.deliverLocked(s, e)
	return nil
}

// restoreMonitor replays one journalled monitor registration at startup: the
// monitor is rebuilt from its seed and takes its seq-0 verdict against the
// dataset state at this point of the event stream, exactly as it did live.
// Its ε charge replays separately through the tenant spending records.
func (s *Server) restoreMonitor(rec persist.MonitorRecord) error {
	d := s.domain(rec.Dataset)
	d.mu.Lock()
	defer d.mu.Unlock()
	m, err := s.addMonitor(rec, d)
	if err != nil {
		return err
	}
	e, err := s.datasets.Get(rec.Dataset)
	if err != nil {
		return fmt.Errorf("server: restoring monitor %q: %w", rec.ID, err)
	}
	s.evaluateMonitor(m, e)
	return nil
}

// handleDatasetAppend serves POST /v1/datasets/{name}/append.
func (s *Server) handleDatasetAppend(w http.ResponseWriter, r *http.Request) {
	t := s.beginTrace(w, r)
	outcome := s.serveDatasetAppend(t, r)
	s.finishTrace(t, mechDatasets, outcome)
	s.countRequest(mechDatasets, outcome)
}

func (s *Server) serveDatasetAppend(w *traceWriter, r *http.Request) string {
	name := r.PathValue("name")
	w.dataset = name
	if code, ok := s.persistReady(w); !ok {
		return code
	}
	var parsed *dataset.Transactions
	code, ok := s.decodeFIMIBody(w, r, &DatasetAppendRequest{}, func(fimi io.Reader) (err error) {
		parsed, err = dataset.ReadFIMILimited(fimi, name, s.fimiLimits())
		return err
	})
	if !ok {
		return code
	}
	w.mark(stageDecode)
	if _, err := s.datasets.Get(name); err != nil {
		writeError(w, http.StatusNotFound, ErrorBody{Code: CodeUnknownDataset, Message: err.Error()})
		return CodeUnknownDataset
	}
	if parsed == nil {
		return badRequest(w, errors.New("append body needs fimi transactions"))
	}
	if parsed.NumRecords() == 0 {
		return badRequest(w, errors.New("append body holds no transactions"))
	}
	delta := make([][]int32, parsed.NumRecords())
	for i := range delta {
		delta[i] = parsed.Record(i)
	}
	w.mark(stageValidate)

	// Build the whole next generation — tail block copy, count deltas, sketch
	// and zone extension — before taking any lock, so appends to different
	// datasets overlap their builds. PrepareAppend also validates the grown
	// dataset against the catalog limits.
	p, err := s.datasets.PrepareAppend(name, delta)
	if err != nil {
		if errors.Is(err, store.ErrUnknownDataset) {
			writeError(w, http.StatusNotFound, ErrorBody{Code: CodeUnknownDataset, Message: err.Error()})
			return CodeUnknownDataset
		}
		return badRequest(w, err)
	}

	d := s.domain(name)
	d.mu.Lock()
	if p.Stale() {
		// Lost a prepare race. PrepareAppend ran before d.mu was taken, so
		// another append to this dataset — usually a concurrent request
		// through this handler — installed a newer generation in between;
		// rebuild against it (re-validating the limits) before journalling.
		if p, err = s.datasets.PrepareAppend(name, delta); err != nil {
			d.mu.Unlock()
			if errors.Is(err, store.ErrUnknownDataset) {
				writeError(w, http.StatusNotFound, ErrorBody{Code: CodeUnknownDataset, Message: err.Error()})
				return CodeUnknownDataset
			}
			return badRequest(w, err)
		}
	}
	// Journal before installing — the WAL is the source of truth the next
	// restart replays — with the dataset's next sequence number, so replay
	// can prove this dataset's WAL subsequence is contiguous however appends
	// to other datasets interleave around it.
	seq := d.seqs[name] + 1
	if s.persist != nil {
		if err := s.persist.AppendDelta(persist.AppendRecord{Name: name, Seq: seq, Records: delta}); err != nil {
			d.mu.Unlock()
			return internalError(w, fmt.Errorf("server: journalling append to %q: %w", name, err))
		}
	}
	e, err := s.datasets.InstallAppend(p)
	for errors.Is(err, store.ErrStaleAppend) {
		// A direct library append raced in after the staleness check. The
		// delta is already journalled, so rebuild and install it — returning
		// an error now would leave a journalled-yet-unapplied delta, a
		// restart-visible fault.
		if p, err = s.datasets.PrepareAppend(name, delta); err != nil {
			break
		}
		e, err = s.datasets.InstallAppend(p)
	}
	if err != nil {
		d.mu.Unlock()
		return internalError(w, err)
	}
	d.seqs[name] = seq
	verdicts := d.deliverLocked(s, e)
	d.mu.Unlock()
	w.mark(stageExecute)

	s.appendsTotal.Inc()
	info := e.Info()
	writeJSON(w, http.StatusOK, DatasetAppendResponse{
		Dataset:         name,
		AppendedRecords: len(delta),
		Seq:             seq,
		Records:         info.Records,
		Items:           info.Items,
		MonitorVerdicts: verdicts,
	})
	return "ok"
}

// handleMonitorCreate serves POST /v1/monitors.
func (s *Server) handleMonitorCreate(w http.ResponseWriter, r *http.Request) {
	t := s.beginTrace(w, r)
	outcome := s.serveMonitorCreate(t, r)
	s.finishTrace(t, mechMonitors, outcome)
	s.finishRequest(mechMonitors, outcome)
}

func (s *Server) serveMonitorCreate(w *traceWriter, r *http.Request) string {
	var req MonitorCreateRequest
	if code, ok := s.decode(w, r, &req); !ok {
		return code
	}
	w.mark(stageDecode)
	w.tenant, w.dataset = req.Tenant, req.Dataset
	if code, ok := s.persistReady(w); !ok {
		return code
	}
	if req.MaxAnswers == 0 {
		req.MaxAnswers = 1
	}
	switch {
	case req.Tenant == "":
		return badRequest(w, errors.New("monitor needs a tenant"))
	case req.Dataset == "":
		return badRequest(w, errors.New("monitor needs a dataset"))
	case req.Item < 0:
		return badRequest(w, fmt.Errorf("monitor item %d must be non-negative", req.Item))
	case math.IsNaN(req.Threshold) || math.IsInf(req.Threshold, 0):
		return badRequest(w, fmt.Errorf("monitor threshold %v must be finite", req.Threshold))
	case !(req.Epsilon >= engine.MinEpsilon) || !(req.Epsilon <= engine.MaxEpsilon):
		return badRequest(w, fmt.Errorf("monitor epsilon %v must be in [%g, %g]", req.Epsilon, engine.MinEpsilon, engine.MaxEpsilon))
	case req.MaxAnswers < 0 || req.MaxAnswers > s.cfg.MaxAnswers:
		return badRequest(w, fmt.Errorf("monitor max_answers %d must be in [1, %d]", req.MaxAnswers, s.cfg.MaxAnswers))
	}
	if _, err := s.datasets.Get(req.Dataset); err != nil {
		writeError(w, http.StatusNotFound, ErrorBody{Code: CodeUnknownDataset, Message: err.Error()})
		return CodeUnknownDataset
	}
	seed := req.Seed
	if seed == 0 {
		drawn, err := randomSeed()
		if err != nil {
			return internalError(w, err)
		}
		seed = drawn
	}
	w.mark(stageValidate)

	// The monitor's whole budget is charged up front, once: every verdict it
	// ever streams is paid from this ε by the SVT run itself.
	w.eps = req.Epsilon
	if _, code, ok := s.charge(w, req.Tenant, mechMonitors, req.Epsilon); !ok {
		return code
	}
	w.mark(stageCharge)

	d := s.domain(req.Dataset)
	d.mu.Lock()
	rec := persist.MonitorRecord{
		ID:         s.nextMonitorID(),
		Tenant:     req.Tenant,
		Dataset:    req.Dataset,
		Item:       req.Item,
		Threshold:  req.Threshold,
		Epsilon:    req.Epsilon,
		MaxAnswers: req.MaxAnswers,
		Adaptive:   req.Adaptive,
		Monotonic:  true,
		Seed:       seed,
	}
	if s.persist != nil {
		if err := s.persist.AppendMonitor(rec); err != nil {
			d.mu.Unlock()
			// Conservative by design: the ε stays spent (the charge is already
			// journalled) but no monitor exists. Refunding here could release
			// budget a crashed journal actually recorded.
			return internalError(w, fmt.Errorf("server: journalling monitor: %w", err))
		}
	}
	m, err := s.addMonitor(rec, d)
	if err != nil {
		d.mu.Unlock()
		return internalError(w, err)
	}
	var verdict *MonitorVerdict
	if e, err := s.datasets.Get(req.Dataset); err == nil {
		verdict = s.evaluateMonitor(m, e) // seq 0: the registration-time answer
	}
	d.mu.Unlock()
	w.mark(stageExecute)

	writeJSON(w, http.StatusCreated, MonitorCreateResponse{MonitorInfo: m.info(), Verdict: verdict})
	return "ok"
}

// handleMonitorList serves GET /v1/monitors.
func (s *Server) handleMonitorList(w http.ResponseWriter, r *http.Request) {
	t := s.beginTrace(w, r)
	s.monMu.RLock()
	order := append([]*monitor(nil), s.monOrder...)
	s.monMu.RUnlock()
	infos := make([]MonitorInfo, len(order))
	for i, m := range order {
		infos[i] = m.info()
	}
	s.countRequest(mechMonitors, "ok")
	writeJSON(t, http.StatusOK, MonitorListResponse{Monitors: infos})
	s.finishTrace(t, mechMonitors, "ok")
}

// handleMonitorGet serves GET /v1/monitors/{id}.
func (s *Server) handleMonitorGet(w http.ResponseWriter, r *http.Request) {
	t := s.beginTrace(w, r)
	m, ok := s.lookupMonitor(r.PathValue("id"))
	if !ok {
		s.countRequest(mechMonitors, CodeUnknownMonitor)
		writeError(t, http.StatusNotFound, ErrorBody{Code: CodeUnknownMonitor,
			Message: fmt.Sprintf("unknown monitor %q", r.PathValue("id"))})
		s.finishTrace(t, mechMonitors, CodeUnknownMonitor)
		return
	}
	s.countRequest(mechMonitors, "ok")
	writeJSON(t, http.StatusOK, m.info())
	s.finishTrace(t, mechMonitors, "ok")
}

func (s *Server) lookupMonitor(id string) (*monitor, bool) {
	s.monMu.RLock()
	m, ok := s.monitors[id]
	s.monMu.RUnlock()
	return m, ok
}

// handleMonitorStream serves GET /v1/monitors/{id}/stream as Server-Sent
// Events: the monitor's full verdict history first, then every new verdict
// as appends arrive, until the client hangs up or the server shuts down.
// The handler writes through the raw ResponseWriter — a long-lived stream
// has no single latency or byte count for the trace pipeline to record.
func (s *Server) handleMonitorStream(w http.ResponseWriter, r *http.Request) {
	m, ok := s.lookupMonitor(r.PathValue("id"))
	if !ok {
		s.countRequest(mechMonitors, CodeUnknownMonitor)
		writeError(w, http.StatusNotFound, ErrorBody{Code: CodeUnknownMonitor,
			Message: fmt.Sprintf("unknown monitor %q", r.PathValue("id"))})
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		s.countRequest(mechMonitors, CodeInternal)
		writeError(w, http.StatusInternalServerError, ErrorBody{Code: CodeInternal,
			Message: "response writer does not support streaming"})
		return
	}
	s.countRequest(mechMonitors, "ok")
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	history, ch := m.subscribe()
	defer m.unsubscribe(ch)
	for _, v := range history {
		if writeSSE(w, fl, v) != nil {
			return
		}
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.monClosed:
			return
		case v, open := <-ch:
			if !open {
				// Dropped for falling behind; the client reconnects.
				return
			}
			if writeSSE(w, fl, v) != nil {
				return
			}
		}
	}
}

// writeSSE emits one verdict as an SSE "verdict" event and flushes it to the
// client immediately.
func writeSSE(w http.ResponseWriter, fl http.Flusher, v MonitorVerdict) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "event: verdict\ndata: %s\n\n", data); err != nil {
		return err
	}
	fl.Flush()
	return nil
}
