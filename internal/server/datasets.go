package server

// The dataset API and the query-resolution step. POST /v1/datasets
// catalogues a dataset (FIMI-format upload or synthetic generator) in the
// server-side store, precomputing its item-count vector once; GET /v1/datasets
// and GET /v1/datasets/{name} expose the inventory. Mechanism requests that
// name a dataset plus a query spec are resolved against the cached counts in
// the generic pipeline (decode → resolve → validate → charge → execute), so
// every mechanism — raw, pipeline, and batched — gains dataset-backed
// queries without per-request transaction scans.

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"github.com/freegap/freegap/internal/dataset"
	"github.com/freegap/freegap/internal/engine"
	"github.com/freegap/freegap/internal/persist"
	"github.com/freegap/freegap/internal/query/plan"
	"github.com/freegap/freegap/internal/store"
	"github.com/freegap/freegap/internal/telemetry"
)

// mechDatasets is the metrics label for the dataset management endpoints.
const mechDatasets = "datasets"

// storeResolver adapts the dataset store to the engine's Resolver contract,
// counting each resolution in the per-dataset telemetry series. The two
// legacy leaf kinds resolve straight from the cached count vector (always
// monotonic sensitivity-1 counting queries, so they get the halved noise
// scale); every composite kind routes through the query planner, which
// reports monotonicity from the spec's algebra fragment.
type storeResolver struct{ s *Server }

func (r storeResolver) Resolve(name string, spec *engine.QuerySpec) ([]float64, bool, error) {
	e, err := r.s.datasets.Get(name)
	if err != nil {
		return nil, false, err
	}
	var answers []float64
	monotonic := true
	switch spec.Kind {
	case engine.QueryAllItems:
		// The cached slice itself: zero copies, zero scans. Mechanisms treat
		// answers as read-only, so sharing it across requests is safe.
		answers = e.ResolveAll()
	case engine.QueryItemCount:
		answers, err = e.ResolveItems(spec.Items)
		if err != nil {
			return nil, false, fmt.Errorf("%w: %v", engine.ErrBadQuerySpec, err)
		}
	default:
		res, err := r.s.resolvePlan(e, spec)
		if err != nil {
			return nil, false, err
		}
		answers, monotonic = res.Answers, res.Monotonic
	}
	r.s.datasetCounters(name).resolved.Inc()
	return answers, monotonic, nil
}

// resolvePlan runs a composite spec through the query planner against e,
// feeding the plan-cache and skipping observables. The spec was validated
// by ResolveRequest (or the explain handler) before this point.
func (s *Server) resolvePlan(e *store.Entry, spec *engine.QuerySpec) (*plan.Result, error) {
	res, err := plan.Resolve(s.datasets, e, spec, plan.Options{NoSkip: s.cfg.DisableQuerySkipping})
	if err != nil {
		return nil, err
	}
	s.hot.planCompile.Observe(res.Compile)
	if res.CacheHit {
		s.hot.planHits.Inc()
	} else {
		s.hot.planMisses.Inc()
	}
	if res.Stats.RecordsSkipped > 0 {
		s.datasetCounters(e.Name()).skipped.Add(uint64(res.Stats.RecordsSkipped))
	}
	if res.Stats.ParallelWorkers > 0 {
		s.hot.scanWorkers.Observe(res.Stats.ParallelWorkers)
	}
	return res, nil
}

// resolver returns the engine Resolver backed by the server's dataset store.
func (s *Server) resolver() engine.Resolver { return storeResolver{s} }

// resolve fills a dataset-backed request's answers from the catalog. On
// failure it writes the error response and returns (outcome, false).
func (s *Server) resolve(w http.ResponseWriter, req engine.Request) (string, bool) {
	if err := engine.ResolveRequest(req, s.resolver()); err != nil {
		return s.writeResolveError(w, err), false
	}
	return "", true
}

// explainRequested reports whether the request asked for the compiled query
// plan (?explain=1) instead of a mechanism execution. Like the trace flag,
// the query string is only parsed when one is present at all.
func explainRequested(r *http.Request) bool {
	return r.URL.RawQuery != "" && r.URL.Query().Get("explain") == "1"
}

// serveExplain handles ?explain=1 on a mechanism endpoint: it validates and
// resolves the request's dataset query — so the plan cache, count_scans and
// skipping observables move exactly as a real request's would — and returns
// the chosen plan. No budget is charged and no noisy answers are released.
func (s *Server) serveExplain(w *traceWriter, req engine.Request) string {
	c := req.Base()
	w.tenant, w.dataset = c.Tenant, c.Dataset
	switch {
	case c.Dataset == "" || c.Queries == nil:
		return badRequest(w, errors.New("explain needs a dataset-backed request (dataset and queries)"))
	case len(c.Answers) != 0:
		return badRequest(w, errors.New("explain does not apply to inline answers"))
	}
	if err := c.Queries.Validate(); err != nil {
		return s.writeResolveError(w, err)
	}
	e, err := s.datasets.Get(c.Dataset)
	if err != nil {
		return s.writeResolveError(w, err)
	}
	var ex *plan.Explain
	if c.Queries.Composite() {
		res, err := s.resolvePlan(e, c.Queries)
		if err != nil {
			return s.writeResolveError(w, err)
		}
		ex = res.Explain
	} else {
		ex = legacyExplain(e, c.Queries)
	}
	w.mark(stageResolve)
	writeJSON(w, http.StatusOK, ex)
	return "ok"
}

// legacyExplain renders the trivial plan for the two leaf kinds, which the
// resolver serves straight from the registration-time count vector.
func legacyExplain(e *store.Entry, q *engine.QuerySpec) *plan.Explain {
	v := e.View()
	answers, detail := len(v.Arena().Counts()), "full universe"
	if q.Kind == engine.QueryItemCount {
		answers, detail = len(q.Items), fmt.Sprintf("%d items projected", len(q.Items))
	}
	return &plan.Explain{
		Dataset:      e.Name(),
		Canonical:    plan.Canonical(q),
		Hash:         fmt.Sprintf("%016x", plan.Hash(q)),
		Cached:       true,
		Monotonic:    true,
		Answers:      answers,
		SketchBlocks: v.Arena().Zones().NumBlocks(),
		RecordsTotal: v.Dataset().NumRecords(),
		Plan:         &plan.NodeExplain{Op: "cached_counts", Detail: detail},
	}
}

// writeResolveError maps a resolution failure to its structured error
// response: unknown datasets are 404s with code "unknown_dataset", malformed
// dataset/query combinations are 400s with code "bad_query_spec", so clients
// can branch on machine-readable codes the same way they do for
// "budget_exhausted".
func (s *Server) writeResolveError(w http.ResponseWriter, err error) string {
	switch {
	case errors.Is(err, store.ErrUnknownDataset):
		writeError(w, http.StatusNotFound, ErrorBody{Code: CodeUnknownDataset, Message: err.Error()})
		return CodeUnknownDataset
	case errors.Is(err, engine.ErrBadQuerySpec):
		writeError(w, http.StatusBadRequest, ErrorBody{Code: CodeBadQuerySpec, Message: err.Error()})
		return CodeBadQuerySpec
	default:
		return badRequest(w, err)
	}
}

// datasetCounters bundles one dataset's hot telemetry series so the resolve
// path pays one sync.Map lookup for all of them.
type datasetCounters struct {
	resolved *telemetry.Counter
	skipped  *telemetry.Counter
}

// datasetCounters returns the per-dataset telemetry bundle, cached in
// datasetHot so the resolve path pays one atomic add per event.
func (s *Server) datasetCounters(name string) *datasetCounters {
	if c, ok := s.datasetHot.Load(name); ok {
		return c.(*datasetCounters)
	}
	return s.registerDatasetTelemetry(name)
}

// registerDatasetTelemetry provisions (and caches) the telemetry series for
// one catalogued dataset and refreshes the catalog-size gauge.
func (s *Server) registerDatasetTelemetry(name string) *datasetCounters {
	c := &datasetCounters{
		resolved: s.telemetry.Counter("freegap_dataset_resolved_total", telemetry.L("dataset", name)),
		skipped:  s.telemetry.Counter("freegap_records_skipped_total", telemetry.L("dataset", name)),
	}
	s.datasetHot.Store(name, c)
	s.telemetry.Gauge("freegap_datasets").Set(int64(s.datasets.Len()))
	return c
}

// RegisterDataset catalogues db under name with full serving support:
// registration in the store, the per-dataset telemetry series, and — on a
// persistent server — a durable blob + WAL record so the dataset survives a
// restart. It is the programmatic equivalent of POST /v1/datasets for
// callers embedding the server. Callers that register the same name on
// every startup of a persistent server should treat store.ErrDatasetExists
// as success: after a restart the journal has already restored the dataset.
func (s *Server) RegisterDataset(name, source string, db *dataset.Transactions) (*store.Entry, error) {
	return s.registerDataset(name, source, db, nil, nil)
}

// errDatasetPersist marks a registration that was rolled back because its
// durable journalling failed; the handler maps it to a 500, not a 400.
var errDatasetPersist = errors.New("server: dataset registration not persisted")

// registerDataset is RegisterDataset with an optional synthetic-generator
// spec, which persists as a regeneration record instead of a blob, and an
// optional blob already holding the dataset's FIMI text, which persists in
// place of a WriteFIMI of db. On a journalling failure the registration is
// rolled back, so a name is only ever taken by a dataset that will survive a
// restart — the client can retry once the persistence fault clears.
func (s *Server) registerDataset(name, source string, db *dataset.Transactions, syn *persist.SyntheticRecord, blob *persist.Blob) (*store.Entry, error) {
	e, err := s.datasets.Register(name, source, db)
	if err != nil {
		return nil, err
	}
	if err := s.journalDataset(e, syn, blob); err != nil {
		s.datasets.Remove(name)
		s.datasetHot.Delete(name)
		s.telemetry.Gauge("freegap_datasets").Set(int64(s.datasets.Len()))
		return nil, fmt.Errorf("%w: %v", errDatasetPersist, err)
	}
	s.registerDatasetTelemetry(name)
	return e, nil
}

func (s *Server) handleDatasetUpload(w http.ResponseWriter, r *http.Request) {
	t := s.beginTrace(w, r)
	outcome := s.serveDatasetUpload(t, r)
	s.finishTrace(t, mechDatasets, outcome)
	s.countRequest(mechDatasets, outcome)
}

func (s *Server) serveDatasetUpload(w *traceWriter, r *http.Request) string {
	// Fail closed before reading: a registration on a dead journal would
	// only be rolled back after the (possibly expensive) parse anyway.
	if code, ok := s.persistReady(w); !ok {
		return code
	}
	var (
		req  DatasetUploadRequest
		db   *dataset.Transactions
		blob *persist.Blob
	)
	defer func() {
		if blob != nil {
			blob.Abort() // a no-op once committed
		}
	}()
	code, ok := s.decodeFIMIBody(w, r, &req, func(fimi io.Reader) (err error) {
		if s.persist != nil {
			// The blob is the uploaded text itself, written as it is parsed.
			blob = s.persist.NewBlob()
			fimi = io.TeeReader(fimi, blob)
		}
		db, err = dataset.ReadFIMILimited(fimi, "upload", s.fimiLimits())
		return err
	})
	if !ok {
		return code
	}
	w.mark(stageDecode)
	w.dataset = req.Name
	if err := store.ValidName(req.Name); err != nil {
		return badRequest(w, err)
	}

	var (
		source string
		syn    *persist.SyntheticRecord
	)
	switch {
	case db != nil && req.Synthetic != nil:
		return badRequest(w, errors.New("exactly one of fimi and synthetic must be set"))
	case db != nil:
		source = "upload:fimi"
	case req.Synthetic != nil:
		generated, err := store.GenerateSynthetic(req.Synthetic.Kind, req.Synthetic.Scale, req.Synthetic.Seed)
		if err != nil {
			return badRequest(w, err)
		}
		db, source = generated, "synthetic:"+strings.ToLower(req.Synthetic.Kind)
		syn = &persist.SyntheticRecord{Kind: req.Synthetic.Kind, Scale: req.Synthetic.Scale, Seed: req.Synthetic.Seed}
	default:
		return badRequest(w, errors.New("exactly one of fimi and synthetic must be set"))
	}
	w.mark(stageValidate)

	entry, err := s.registerDataset(req.Name, source, db, syn, blob)
	w.mark(stageExecute)
	switch {
	case errors.Is(err, store.ErrDatasetExists):
		writeError(w, http.StatusConflict, ErrorBody{Code: CodeDatasetExists, Message: err.Error()})
		return CodeDatasetExists
	case errors.Is(err, errDatasetPersist):
		// Rolled back: an operational fault, not a client one; retryable.
		return internalError(w, err)
	case err != nil:
		return badRequest(w, err)
	}
	writeJSON(w, http.StatusCreated, entry.Info())
	return "ok"
}

func (s *Server) handleDatasetList(w http.ResponseWriter, r *http.Request) {
	t := s.beginTrace(w, r)
	s.countRequest(mechDatasets, "ok")
	writeJSON(t, http.StatusOK, DatasetListResponse{Datasets: s.datasets.List()})
	s.finishTrace(t, mechDatasets, "ok")
}

func (s *Server) handleDatasetGet(w http.ResponseWriter, r *http.Request) {
	t := s.beginTrace(w, r)
	name := r.PathValue("name")
	t.dataset = name
	entry, err := s.datasets.Get(name)
	if err != nil {
		s.countRequest(mechDatasets, CodeUnknownDataset)
		writeError(t, http.StatusNotFound, ErrorBody{Code: CodeUnknownDataset, Message: err.Error()})
		s.finishTrace(t, mechDatasets, CodeUnknownDataset)
		return
	}
	s.countRequest(mechDatasets, "ok")
	writeJSON(t, http.StatusOK, entry.Info())
	s.finishTrace(t, mechDatasets, "ok")
}
