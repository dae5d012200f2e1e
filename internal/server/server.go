// Package server is the multi-tenant DP query service over the library's
// free-gap mechanisms: a long-lived HTTP/JSON facade that lets many
// concurrent clients run the engine's mechanisms — Noisy-Top-K-with-Gap,
// Noisy-Max-with-Gap, the Sparse-Vector-with-Gap variants and the paper's
// end-to-end select–measure–refine pipelines — against per-tenant privacy
// budgets.
//
// Endpoints:
//
//	POST /v1/topk                  Noisy-Top-K-with-Gap selection
//	POST /v1/max                   Noisy-Max-with-Gap (k = 1 special case)
//	POST /v1/svt                   (Adaptive-)Sparse-Vector-with-Gap
//	POST /v1/pipeline/topk         Section 5.2 select–measure–refine pipeline
//	POST /v1/pipeline/svt          Section 6.2 threshold pipeline
//	POST /v1/batch                 up to MaxBatch requests, atomically charged
//	POST /v1/datasets              catalogue a dataset (FIMI upload or synthetic)
//	GET  /v1/datasets              list the catalogued datasets with stats
//	GET  /v1/datasets/{name}       one dataset's stats and resolution counters
//	POST /v1/datasets/{name}/append  append a FIMI delta; derived state updates incrementally
//	POST /v1/monitors              register a served SVT threshold monitor (ε charged once)
//	GET  /v1/monitors              list the registered monitors
//	GET  /v1/monitors/{id}         one monitor's state and budget
//	GET  /v1/monitors/{id}/stream  the monitor's verdicts over Server-Sent Events
//	GET  /v1/tenants/{id}/budget   a tenant's budget ledger with breakdown
//	GET  /healthz                  liveness
//	GET  /metrics                  Prometheus text exposition
//
// Requests to any mechanism endpoint may, instead of carrying inline
// answers, name a catalogued dataset and a counting-query spec
// ({"dataset": "sales", "queries": {"kind": "all_items"}}); the server
// resolves the spec against the dataset's item-count vector — precomputed
// once at registration, never rescanned per request — before validation and
// charging. This is the paper's trust model: the curator holds the
// transaction database and answers counting queries under DP.
//
// The mechanism endpoints are not hand-written: the server walks the
// engine's fixed table of the five built-in mechanisms and mounts one
// generic handler (decode → validate → charge → pool-execute → encode) per
// entry, and every request decodes and encodes through the engine codec.
//
// Each tenant is provisioned a fresh accountant with the configured initial ε
// budget on first use; every request charges it atomically before the
// mechanism runs — batches with a single all-or-nothing multi-charge — and an
// exhausted budget yields a structured 402 response with code
// "budget_exhausted". Mechanism executions run on a bounded worker pool whose
// workers each own a private deterministic noise source, keeping the hot path
// allocation-free and, with Workers = 1 and a fixed Seed, fully reproducible.
package server

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/freegap/freegap/internal/engine"
	"github.com/freegap/freegap/internal/persist"
	"github.com/freegap/freegap/internal/store"
	"github.com/freegap/freegap/internal/telemetry"
)

// Version is the served build's version string, exposed as the version
// label of the freegap_build_info metric.
const Version = "0.7.0"

// Defaults applied by Config.withDefaults.
const (
	// DefaultTenantBudget is the initial per-tenant ε budget.
	DefaultTenantBudget = 10.0
	// DefaultMaxAnswers bounds the number of query answers per request.
	DefaultMaxAnswers = 1 << 20
	// DefaultMaxBodyBytes bounds the request body size.
	DefaultMaxBodyBytes = 32 << 20
	// DefaultMaxTenants bounds the number of auto-provisioned tenants.
	DefaultMaxTenants = 100_000
	// DefaultMaxBatch bounds the number of requests per POST /v1/batch.
	DefaultMaxBatch = 64
	// MinEpsilon is the smallest per-request ε accepted (see
	// engine.MinEpsilon).
	MinEpsilon = engine.MinEpsilon
)

// Config configures a Server.
type Config struct {
	// Addr is the listen address for ListenAndServe (e.g. ":8080"). Ignored
	// when the server is mounted via Handler.
	Addr string
	// TenantBudget is the initial ε budget provisioned to each new tenant
	// (default DefaultTenantBudget).
	TenantBudget float64
	// Workers bounds the mechanism worker pool (default GOMAXPROCS).
	Workers int
	// Seed seeds the worker noise sources. Zero draws a fresh seed from
	// crypto/rand; a fixed value makes a Workers = 1 server deterministic,
	// which the tests and benchmarks rely on.
	Seed uint64
	// MaxAnswers bounds the number of answers accepted per request (default
	// DefaultMaxAnswers).
	MaxAnswers int
	// MaxBodyBytes bounds the request body size (default DefaultMaxBodyBytes).
	MaxBodyBytes int64
	// MaxTenants bounds how many tenants may be auto-provisioned (default
	// DefaultMaxTenants); beyond it, requests from new tenants are rejected
	// so unauthenticated traffic cannot grow the registry without bound.
	MaxTenants int
	// MaxBatch bounds the number of requests per POST /v1/batch (default
	// DefaultMaxBatch).
	MaxBatch int
	// Datasets is the server-side dataset catalog that dataset-backed
	// requests resolve against and the /v1/datasets endpoints manage
	// (default an empty store.New()). Supply a store built with
	// store.NewWithLimits to change the catalog limits.
	Datasets *store.Store
	// Preload registers datasets into the catalog at construction — FIMI
	// files or synthetic generators — so the server starts with a served
	// data inventory (cmd/dpserver fills it from its -preload flags). With
	// Persist enabled, a preload whose name was already restored from the
	// durable state is skipped rather than rejected, so a server that
	// preloads and persists the same dataset restarts cleanly.
	Preload []store.Preload
	// Debug mounts the net/http/pprof handlers under /debug/pprof/ and adds
	// Go runtime gauges (goroutines, heap, GC pause) to the /metrics scrape.
	// Off by default: profiling endpoints on a multi-tenant privacy service
	// are an operator opt-in, not a standing surface.
	Debug bool
	// AccessLog, when set, receives one structured record per API request:
	// request id, tenant, mechanism, dataset, status, outcome code, ε
	// charged, response bytes, and the total plus per-stage latencies in
	// microseconds. Nil disables per-request logging (slow requests are
	// still reported, see SlowRequestThreshold).
	AccessLog *slog.Logger
	// SlowRequestThreshold is the latency past which a request is logged
	// even with AccessLog unset (to AccessLog when configured, stderr JSON
	// otherwise). Zero applies DefaultSlowRequestThreshold; negative
	// disables slow-request logging.
	SlowRequestThreshold time.Duration
	// DisableQuerySkipping turns off data skipping in composite filter
	// queries — the zone sketches' length ranges, the item postings that
	// `contains` filters walk and the record-length table that length-only
	// filters read — so every filter scans every record. Results are
	// byte-identical either way; the switch exists for benchmarking the
	// skipping win and as a plain-scan reference when diagnosing suspected
	// skipping issues.
	DisableQuerySkipping bool
	// Persist, when set, makes the privacy-critical state durable: the
	// server restores per-tenant spent budgets and the dataset catalog from
	// the log at construction, journals every admitted charge and dataset
	// registration into it while serving, and flushes + compacts it on
	// Shutdown/Close. Ownership of the log passes to the server
	// unconditionally: if New fails, it closes the log before returning.
	// Open the log with persist.Open on the state directory.
	Persist *persist.Log
}

func (c Config) withDefaults() (Config, error) {
	if c.TenantBudget == 0 {
		c.TenantBudget = DefaultTenantBudget
	}
	if !(c.TenantBudget > 0) || math.IsInf(c.TenantBudget, 1) {
		return c, fmt.Errorf("server: tenant budget %v must be positive and finite", c.TenantBudget)
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Workers < 0 {
		return c, fmt.Errorf("server: workers %d must be positive", c.Workers)
	}
	if c.MaxAnswers == 0 {
		c.MaxAnswers = DefaultMaxAnswers
	}
	if c.MaxAnswers < 0 {
		return c, fmt.Errorf("server: max answers %d must be positive", c.MaxAnswers)
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if c.MaxBodyBytes < 0 {
		return c, fmt.Errorf("server: max body bytes %d must be positive", c.MaxBodyBytes)
	}
	if c.MaxTenants == 0 {
		c.MaxTenants = DefaultMaxTenants
	}
	if c.MaxTenants < 0 {
		return c, fmt.Errorf("server: max tenants %d must be positive", c.MaxTenants)
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = DefaultMaxBatch
	}
	if c.MaxBatch < 0 {
		return c, fmt.Errorf("server: max batch %d must be positive", c.MaxBatch)
	}
	if c.Datasets == nil {
		c.Datasets = store.New()
	}
	if c.SlowRequestThreshold == 0 {
		c.SlowRequestThreshold = DefaultSlowRequestThreshold
	}
	if c.SlowRequestThreshold < 0 {
		c.SlowRequestThreshold = -1 // normalized "disabled"
	}
	if c.Seed == 0 {
		seed, err := randomSeed()
		if err != nil {
			return c, fmt.Errorf("server: seeding noise sources: %w", err)
		}
		c.Seed = seed
	}
	return c, nil
}

// randomSeed draws a nonzero 64-bit seed from the OS entropy source.
func randomSeed() (uint64, error) {
	var b [8]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		return 0, err
	}
	seed := binary.LittleEndian.Uint64(b[:])
	if seed == 0 {
		seed = 1
	}
	return seed, nil
}

// Server is the multi-tenant DP query service.
type Server struct {
	cfg      Config
	reg      *Registry
	datasets *store.Store
	// datasetHot caches the per-dataset resolution counter (dataset name →
	// *telemetry.Counter) so the resolve path pays one atomic add instead of
	// a registry lookup; entries are added as datasets are registered.
	datasetHot sync.Map
	pool       *workerPool
	mux        *http.ServeMux
	telemetry  *telemetry.CounterSet
	hot        hotCounters
	httpSrv    *http.Server
	started    time.Time
	// persist is the durable state log (nil = in-memory only). The server
	// owns its lifecycle once construction succeeds: Shutdown/Close flush
	// and close it.
	persist *persist.Log
	// accessLog and slowThreshold configure per-request logging (see
	// Config.AccessLog / Config.SlowRequestThreshold, already defaulted).
	accessLog     *slog.Logger
	slowThreshold time.Duration
	// Scrape-time sampling state (see sampleScrapeGauges), serialized by
	// scrapeMu across concurrent /metrics scrapes.
	scrapeMu        sync.Mutex
	tenantGauges    map[string]*telemetry.FloatGauge
	planFlushTotal  *telemetry.Counter
	lastPlanFlushes uint64
	// Streaming state (see streaming.go). Every dataset hashes to one of the
	// domains; the owning domain's mutex serializes journal → apply → deliver
	// for its datasets — monitor registration and dataset appends, each
	// journalled under the domain lock before it is applied — so each
	// dataset's WAL subsequence equals the order its monitors saw the world
	// in and a restart replays their verdict histories bit for bit. Appends
	// to datasets in different domains never contend.
	domains [numStreamDomains]streamDomain
	// monMu guards the cross-domain monitor registry (lookup by id, listing
	// in registration order); the per-dataset watcher lists live in the
	// owning domain.
	monMu    sync.RWMutex
	monitors map[string]*monitor
	monOrder []*monitor
	// monNextID holds the last-minted numeric monitor id (Add(1) mints;
	// restore CAS-maxes it over the journalled ids).
	monNextID atomic.Uint64
	// monClosed is closed at the start of Shutdown/Close so long-lived SSE
	// handlers hang up before the HTTP server waits on them to drain.
	monClosed          chan struct{}
	appendsTotal       *telemetry.Counter
	monitorVerdicts    *telemetry.Counter
	monitorSubsDropped *telemetry.Counter
	monitorsGauge      *telemetry.Gauge
	shutdownOnce       sync.Once
}

// hotCounters holds the metric series touched on every request, resolved
// once at construction so the hot path pays a single atomic add per event
// instead of a mutex-guarded registry lookup (telemetry documents cached
// pointers as the intended hot-path usage).
type hotCounters struct {
	inFlight  *telemetry.Gauge
	requests  map[string]map[string]*telemetry.Counter // mechanism → outcome code
	exhausted map[string]*telemetry.Counter            // mechanism
	latency   map[string]*telemetry.Histogram          // mechanism (endpoint label)
	stages    [numStages]*telemetry.Histogram          // pipeline stage

	// Compiled-plan cache observables, shared across datasets (the
	// per-dataset split lives in the store entries' Info).
	planHits   *telemetry.Counter
	planMisses *telemetry.Counter
	// planCompile tracks spec normalize+canonicalize time per composite
	// resolution (cache hits included — canonicalization is the lookup key).
	planCompile *telemetry.Histogram
	// scanWorkers records the widest worker fan-out per filter-bearing
	// composite resolution (1 = the scan stayed serial).
	scanWorkers *telemetry.ValueHistogram
}

// labelTenants is the metrics label for the tenant budget endpoint.
const labelTenants = "tenants"

func newHotCounters(set *telemetry.CounterSet, mechanisms []string) hotCounters {
	mechanisms = append(append([]string(nil), mechanisms...), mechBatch, mechDatasets, mechMonitors, "unknown")
	outcomes := []string{"ok", CodeInvalidRequest, CodeUnknownMechanism, CodeUnknownDataset,
		CodeUnknownMonitor, CodeBadQuerySpec, CodeBudgetExhausted, CodeTenantLimit,
		CodeCancelled, CodeRequestTooLarge, CodeUnavailable, CodeInternal}
	hot := hotCounters{
		inFlight:  set.Gauge("freegap_in_flight_requests"),
		requests:  make(map[string]map[string]*telemetry.Counter, len(mechanisms)),
		exhausted: make(map[string]*telemetry.Counter, len(mechanisms)),
		latency:   make(map[string]*telemetry.Histogram, len(mechanisms)+1),
	}
	for _, mech := range mechanisms {
		hot.requests[mech] = make(map[string]*telemetry.Counter, len(outcomes))
		for _, code := range outcomes {
			hot.requests[mech][code] = set.Counter("freegap_requests_total",
				telemetry.L("mechanism", mech), telemetry.L("code", code))
		}
		hot.exhausted[mech] = set.Counter("freegap_budget_exhausted_total", telemetry.L("mechanism", mech))
		hot.latency[mech] = set.Histogram("freegap_request_seconds", telemetry.L("mechanism", mech))
	}
	// The budget endpoint gets a latency series but no outcome counters: it
	// reads the ledger, it never charges it.
	hot.latency[labelTenants] = set.Histogram("freegap_request_seconds", telemetry.L("mechanism", labelTenants))
	hot.planHits = set.Counter("freegap_plan_cache_hits_total")
	hot.planMisses = set.Counter("freegap_plan_cache_misses_total")
	hot.planCompile = set.Histogram("freegap_plan_compile_seconds")
	hot.scanWorkers = set.ValueHistogram("freegap_scan_workers")
	for st := range hot.stages {
		hot.stages[st] = set.Histogram("freegap_stage_seconds", telemetry.L("stage", stageNames[st]))
	}
	return hot
}

// New constructs a Server from cfg. The caller owns the server's lifecycle:
// either mount Handler into an existing http.Server, or use
// ListenAndServe/Shutdown; call Close when done to stop the worker pool.
// Ownership of cfg.Persist transfers unconditionally: on a construction
// error New closes the log itself, so callers never leak its flusher and
// file descriptor.
func New(cfg Config) (*Server, error) {
	// fail routes every error exit, keeping the Persist-ownership promise.
	fail := func(err error) (*Server, error) {
		if cfg.Persist != nil {
			_ = cfg.Persist.Close()
		}
		return nil, err
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return fail(err)
	}
	reg, err := NewRegistry(cfg.TenantBudget, cfg.MaxTenants)
	if err != nil {
		return fail(err)
	}
	// Restore the journalled spending state before anything can charge:
	// a restarted server resumes with the exact spent budget (and
	// per-mechanism breakdown) every tenant had, so a restart never
	// refunds spent ε.
	var restored persist.State
	if cfg.Persist != nil {
		restored = cfg.Persist.State()
		for tenant, ts := range restored.Tenants {
			if err := reg.RestoreTenant(tenant, ts.Charges, ts.ChargeCount); err != nil {
				return fail(err)
			}
		}
	}
	s := &Server{
		cfg:           cfg,
		reg:           reg,
		datasets:      cfg.Datasets,
		pool:          newWorkerPool(cfg.Workers, cfg.Seed),
		mux:           http.NewServeMux(),
		telemetry:     telemetry.NewCounterSet(),
		started:       time.Now(),
		persist:       cfg.Persist,
		accessLog:     cfg.AccessLog,
		slowThreshold: cfg.SlowRequestThreshold,
		tenantGauges:  make(map[string]*telemetry.FloatGauge),
		monClosed:     make(chan struct{}),
	}
	for i := range s.domains {
		s.domains[i].watchers = make(map[string][]*monitor)
		s.domains[i].seqs = make(map[string]uint64)
	}
	// Built eagerly so Serve (serving goroutine) and Shutdown (signal
	// goroutine) never race on the field.
	s.httpSrv = &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 10 * time.Second,
	}
	s.telemetry.Help("freegap_requests_total", "DP query requests by mechanism and outcome code.")
	s.telemetry.Help("freegap_budget_exhausted_total", "Requests rejected because the tenant budget was exhausted.")
	s.telemetry.Help("freegap_in_flight_requests", "Mechanism requests currently being served.")
	s.telemetry.Help("freegap_datasets", "Datasets in the server-side catalog.")
	s.telemetry.Help("freegap_dataset_resolved_total", "Query resolutions served from a dataset's cached item counts.")
	s.telemetry.Help("freegap_plan_cache_hits_total", "Composite query resolutions served from a compiled-plan cache.")
	s.telemetry.Help("freegap_plan_cache_misses_total", "Composite query resolutions that compiled and evaluated a plan.")
	s.telemetry.Help("freegap_plan_compile_seconds", "Query-plan normalize+canonicalize time per composite resolution.")
	s.telemetry.Help("freegap_records_skipped_total", "Records in blocks that filter scans skipped: a zone sketch's length range or an item's empty posting list proved them unmatching.")
	s.telemetry.Help("freegap_scan_workers", "Widest block-parallel worker fan-out per filter-bearing query resolution (1 = serial).")
	s.telemetry.Help("freegap_request_seconds", "Request latency by endpoint, full pipeline wall time.")
	s.telemetry.Help("freegap_stage_seconds", "Pipeline stage latency across all endpoints.")
	s.telemetry.Help("freegap_uptime_seconds", "Seconds since the server was constructed.")
	s.telemetry.Help("freegap_build_info", "Constant 1, labelled with the server version and Go runtime version.")
	s.telemetry.Help("freegap_tenant_remaining_epsilon", "Remaining privacy budget per tenant, sampled at scrape.")
	s.telemetry.Help("freegap_appends_total", "Dataset append requests admitted and applied incrementally.")
	s.telemetry.Help("freegap_monitors", "Registered SVT threshold monitors, retired ones included.")
	s.telemetry.Help("freegap_monitor_verdicts_total", "Threshold-monitor verdicts released across all monitors.")
	s.telemetry.Help("freegap_monitor_subscribers_dropped_total", "SSE monitor subscribers disconnected because their verdict buffer was full.")
	s.telemetry.Help("freegap_plan_cache_flushes_total", "Compiled-plan caches emptied because they reached capacity, across all datasets.")
	s.telemetry.FloatGauge("freegap_build_info",
		telemetry.L("version", Version), telemetry.L("go_version", runtime.Version())).Set(1)
	s.planFlushTotal = s.telemetry.Counter("freegap_plan_cache_flushes_total")
	// Provisioned before the restore loop: replaying journalled appends and
	// monitor registrations moves the monitor gauge and verdict counter.
	s.appendsTotal = s.telemetry.Counter("freegap_appends_total")
	s.monitorVerdicts = s.telemetry.Counter("freegap_monitor_verdicts_total")
	s.monitorSubsDropped = s.telemetry.Counter("freegap_monitor_subscribers_dropped_total")
	s.monitorsGauge = s.telemetry.Gauge("freegap_monitors")
	if s.persist != nil {
		s.telemetry.Help("freegap_persist_failed", "1 when the durable state log has hit an I/O error and charges are no longer journalled.")
		s.telemetry.Help("freegap_wal_queue_depth", "WAL records buffered in memory awaiting the background flusher.")
		s.telemetry.Help("freegap_wal_generation", "Current WAL segment generation (incremented by compaction).")
		s.telemetry.Help("freegap_fsync_seconds", "WAL write+fsync latency per flusher drain.")
		s.telemetry.Help("freegap_compaction_seconds", "Snapshot compaction duration.")
		s.telemetry.Gauge("freegap_persist_failed").Set(0)
		fsync := s.telemetry.Histogram("freegap_fsync_seconds")
		compact := s.telemetry.Histogram("freegap_compaction_seconds")
		s.persist.SetMetrics(persist.Metrics{
			ObserveFsync:      fsync.Observe,
			ObserveCompaction: compact.Observe,
		})
	}
	s.hot = newHotCounters(s.telemetry, engine.DefaultRegistry().Names())
	// Seed the dataset telemetry with whatever the caller already catalogued,
	// then rebuild the journalled datasets and apply the preloads.
	for _, name := range s.datasets.Names() {
		s.registerDatasetTelemetry(name)
	}
	// Replay the catalog event stream in journal order: registrations,
	// appends and monitor registrations interleave exactly as they were
	// admitted, so every restored monitor re-observes the same sequence of
	// dataset states it saw live and its verdict history replays
	// byte-identically from its journalled seed.
	for _, ev := range restored.Events {
		var err error
		switch {
		case ev.Dataset != nil:
			err = s.restoreDataset(*ev.Dataset)
		case ev.Append != nil:
			err = s.restoreAppend(*ev.Append)
		case ev.Monitor != nil:
			err = s.restoreMonitor(*ev.Monitor)
		}
		if err != nil {
			s.pool.close()
			return fail(err)
		}
	}
	// Journal new mutations only from here on: everything restored above is
	// already durable.
	if s.persist != nil {
		reg.SetJournal(s.persist)
	}
	for _, p := range cfg.Preload {
		if s.persist != nil {
			if _, err := s.datasets.Get(p.Name); err == nil {
				// Already restored from the durable state; re-preloading
				// would reject the whole startup with dataset_exists.
				continue
			}
		}
		entry, err := p.Load(s.datasets)
		if err != nil {
			s.pool.close()
			return fail(fmt.Errorf("server: preloading dataset %q: %w", p.Name, err))
		}
		s.registerDatasetTelemetry(p.Name)
		var syn *persist.SyntheticRecord
		if p.Synthetic != "" {
			syn = &persist.SyntheticRecord{Kind: p.Synthetic, Scale: p.Scale, Seed: p.Seed}
		}
		if err := s.journalDataset(entry, syn); err != nil {
			s.pool.close()
			return fail(err)
		}
	}
	s.routes()
	return s, nil
}

// routes mounts the fixed endpoints and one generic mechanism handler per
// built-in mechanism. Literal patterns take precedence over the trailing
// "POST /v1/" subtree pattern, which only exists to turn every unknown name
// — single-segment or namespaced — into a structured 404.
func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/tenants/{id}/budget", s.handleBudget)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/datasets", s.handleDatasetUpload)
	s.mux.HandleFunc("GET /v1/datasets", s.handleDatasetList)
	s.mux.HandleFunc("GET /v1/datasets/{name}", s.handleDatasetGet)
	s.mux.HandleFunc("POST /v1/datasets/{name}/append", s.handleDatasetAppend)
	s.mux.HandleFunc("POST /v1/monitors", s.handleMonitorCreate)
	s.mux.HandleFunc("GET /v1/monitors", s.handleMonitorList)
	s.mux.HandleFunc("GET /v1/monitors/{id}", s.handleMonitorGet)
	s.mux.HandleFunc("GET /v1/monitors/{id}/stream", s.handleMonitorStream)
	for _, mech := range engine.DefaultRegistry().Mechanisms() {
		s.mux.Handle("POST /v1/"+mech.Name(), s.handleMechanism(mech))
	}
	s.mux.HandleFunc("POST /v1/", s.handleUnknownMechanism)
	if s.cfg.Debug {
		// Operator opt-in only: profiling a multi-tenant privacy service is
		// a debugging posture, not a standing production surface.
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
}

// Handler returns the server's HTTP handler, for mounting under httptest or a
// caller-owned http.Server.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry exposes the tenant registry (used by the CLI for startup logging
// and by tests).
func (s *Server) Registry() *Registry { return s.reg }

// Datasets exposes the server-side dataset catalog. Datasets registered
// directly into it are served, but only registrations made through the
// server (the /v1/datasets endpoint, Config.Preload, or RegisterDataset) get
// a per-dataset telemetry series.
func (s *Server) Datasets() *store.Store { return s.datasets }

// Config returns the effective configuration after defaulting.
func (s *Server) Config() Config { return s.cfg }

// Metrics exposes the server's telemetry registry.
func (s *Server) Metrics() *telemetry.CounterSet { return s.telemetry }

// ListenAndServe serves on cfg.Addr until Shutdown or a listener error. Like
// http.Server.ListenAndServe it returns http.ErrServerClosed after a clean
// Shutdown.
func (s *Server) ListenAndServe() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve serves on the given listener until Shutdown or a listener error; it
// lets callers bind to ":0" and discover the assigned port themselves.
func (s *Server) Serve(ln net.Listener) error {
	return s.httpSrv.Serve(ln)
}

// Shutdown gracefully stops a ListenAndServe/Serve server: it drains
// in-flight HTTP requests (bounded by ctx), stops the worker pool, and
// flushes + compacts + closes the durable state log, so a clean shutdown
// leaves a snapshot-only state directory behind. Called before Serve, it
// marks the server closed so Serve returns http.ErrServerClosed immediately
// instead of hanging.
func (s *Server) Shutdown(ctx context.Context) error {
	// Hang up the long-lived SSE monitor streams first: Shutdown waits for
	// in-flight handlers, and a subscribed stream never finishes on its own.
	s.shutdownOnce.Do(func() { close(s.monClosed) })
	err := s.httpSrv.Shutdown(ctx)
	if errors.Is(err, http.ErrServerClosed) {
		err = nil
	}
	s.pool.close()
	if s.persist != nil {
		if perr := s.persist.Close(); perr != nil && err == nil {
			err = perr
		}
	}
	return err
}

// Close stops the worker pool and flushes + closes the durable state log
// without touching any HTTP listener. Use it when the server was mounted via
// Handler.
func (s *Server) Close() {
	s.shutdownOnce.Do(func() { close(s.monClosed) })
	s.pool.close()
	if s.persist != nil {
		_ = s.persist.Close()
	}
}
