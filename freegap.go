package freegap

import (
	"github.com/freegap/freegap/internal/accountant"
	"github.com/freegap/freegap/internal/alignment"
	"github.com/freegap/freegap/internal/baseline"
	"github.com/freegap/freegap/internal/core"
	"github.com/freegap/freegap/internal/dataset"
	"github.com/freegap/freegap/internal/engine"
	"github.com/freegap/freegap/internal/persist"
	"github.com/freegap/freegap/internal/pipeline"
	"github.com/freegap/freegap/internal/postprocess"
	"github.com/freegap/freegap/internal/rng"
	"github.com/freegap/freegap/internal/server"
	"github.com/freegap/freegap/internal/store"
	"github.com/freegap/freegap/internal/validate"
)

// Source is the random-noise source consumed by every mechanism. Use NewSource
// for a deterministic, splittable generator, or adapt any other uniform
// 64-bit generator by implementing Uint64.
type Source = rng.Source

// Xoshiro is the library's deterministic pseudo-random generator
// (xoshiro256** seeded via SplitMix64).
type Xoshiro = rng.Xoshiro

// NewSource returns a deterministic noise source seeded with the given value.
func NewSource(seed uint64) *Xoshiro { return rng.NewXoshiro(seed) }

// Laplace draws a zero-mean Laplace(scale) sample; exposed for callers that
// need raw noise (e.g. custom measurement stages).
func Laplace(src Source, scale float64) float64 { return rng.Laplace(src, scale) }

// TieProbabilityBound returns the Appendix A.1 bound γεn² on the probability
// of a tie among n sensitivity-1 queries under Discrete Laplace noise of base
// γ, the failure probability of the pure-DP guarantee on finite-precision
// machines.
func TieProbabilityBound(eps, base float64, n int) float64 {
	return rng.TieProbabilityBound(eps, base, n)
}

//
// The paper's mechanisms (internal/core).
//

// NoiseKind selects the additive noise distribution used by the mechanisms.
type NoiseKind = core.NoiseKind

// Noise distributions available to the mechanisms.
const (
	NoiseLaplace         = core.NoiseLaplace
	NoiseDiscreteLaplace = core.NoiseDiscreteLaplace
	NoiseStaircase       = core.NoiseStaircase
)

// TopKWithGap is the Noisy-Top-K-with-Gap mechanism (Algorithm 1 of the
// paper): it selects the approximate top-k queries and releases the noisy
// gaps between consecutive selections at no extra privacy cost.
type TopKWithGap = core.TopKWithGap

// TopKResult is the output of a TopKWithGap run.
type TopKResult = core.TopKResult

// Selection is one selected query index together with its released gap.
type Selection = core.Selection

// MaxWithGapResult is the output of the k = 1 Noisy-Max-with-Gap special case.
type MaxWithGapResult = core.MaxWithGapResult

// NewTopKWithGap returns a Noisy-Top-K-with-Gap mechanism selecting k of the
// supplied queries under budget epsilon. Set monotonic when the query list is
// monotonic (e.g. counting queries); the same budget then buys half the noise.
func NewTopKWithGap(k int, epsilon float64, monotonic bool) (*TopKWithGap, error) {
	return core.NewTopKWithGap(k, epsilon, monotonic)
}

// MaxWithGap runs Noisy-Max-with-Gap: it returns the index of the
// approximately largest query and the noisy gap to the runner-up.
func MaxWithGap(src Source, answers []float64, epsilon float64, monotonic bool) (*MaxWithGapResult, error) {
	return core.MaxWithGap(src, answers, epsilon, monotonic)
}

// SVTWithGap is Sparse-Vector-with-Gap: the Sparse Vector Technique that also
// releases, for each above-threshold answer, the noisy gap above the noisy
// threshold at no extra privacy cost.
type SVTWithGap = core.SVTWithGap

// AdaptiveSVTWithGap is Adaptive-Sparse-Vector-with-Gap (Algorithm 2 of the
// paper): the gap-releasing Sparse Vector variant that charges less budget for
// queries far above the threshold, so it can answer more of them.
type AdaptiveSVTWithGap = core.AdaptiveSVTWithGap

// SVTGapResult is the output of the Sparse Vector variants.
type SVTGapResult = core.SVTGapResult

// SVTItem is one per-query output of the Sparse Vector variants.
type SVTItem = core.SVTItem

// Branch identifies which branch of Adaptive-Sparse-Vector-with-Gap produced
// an answer (and therefore its privacy charge).
type Branch = core.Branch

// Branches of Adaptive-Sparse-Vector-with-Gap.
const (
	BranchBelow  = core.BranchBelow
	BranchTop    = core.BranchTop
	BranchMiddle = core.BranchMiddle
)

// NewSVTWithGap returns a Sparse-Vector-with-Gap mechanism that reports up to
// k queries above threshold under budget epsilon.
func NewSVTWithGap(k int, epsilon, threshold float64, monotonic bool) (*SVTWithGap, error) {
	return core.NewSVTWithGap(k, epsilon, threshold, monotonic)
}

// NewAdaptiveSVTWithGap returns an Adaptive-Sparse-Vector-with-Gap mechanism
// provisioned to answer at least k above-threshold queries under budget
// epsilon (and more when queries clear the threshold by a wide margin).
func NewAdaptiveSVTWithGap(k int, epsilon, threshold float64, monotonic bool) (*AdaptiveSVTWithGap, error) {
	return core.NewAdaptiveSVTWithGap(k, epsilon, threshold, monotonic)
}

//
// Classical baselines (internal/baseline).
//

// LaplaceMechanism answers vector queries with coordinate-wise Laplace noise;
// it is the measurement stage of the select-then-measure protocols.
type LaplaceMechanism = baseline.LaplaceMechanism

// NoisyTopK is the classical Noisy Top-K mechanism (indices only, no gaps).
type NoisyTopK = baseline.NoisyTopK

// SparseVector is the classical Sparse Vector Technique (no gaps, no
// adaptivity) in the Lyu et al. formulation.
type SparseVector = baseline.SparseVector

// ExponentialMechanism is the exponential mechanism selection baseline.
type ExponentialMechanism = baseline.ExponentialMechanism

// NewLaplaceMechanism returns a Laplace mechanism for a query of the given
// total L1 sensitivity under budget epsilon.
func NewLaplaceMechanism(epsilon, sensitivity float64) (*LaplaceMechanism, error) {
	return baseline.NewLaplaceMechanism(epsilon, sensitivity)
}

// NewNoisyTopK returns the classical (gap-free) Noisy Top-K mechanism.
func NewNoisyTopK(k int, epsilon float64, monotonic bool) (*NoisyTopK, error) {
	return baseline.NewNoisyTopK(k, epsilon, monotonic)
}

// NewSparseVector returns the classical Sparse Vector Technique with the given
// threshold/query budget split theta (use ThetaLyu for the recommended value).
func NewSparseVector(k int, epsilon, threshold, theta float64, monotonic bool) (*SparseVector, error) {
	return baseline.NewSparseVector(k, epsilon, threshold, theta, monotonic)
}

// NewExponentialMechanism returns the exponential mechanism with the given
// utility sensitivity.
func NewExponentialMechanism(epsilon, sensitivity float64) (*ExponentialMechanism, error) {
	return baseline.NewExponentialMechanism(epsilon, sensitivity)
}

// ThetaLyu returns the Lyu et al. recommended budget split between the Sparse
// Vector threshold and its queries: 1/(1+(2k)^{2/3}), or 1/(1+k^{2/3}) for
// monotonic query lists.
func ThetaLyu(k int, monotonic bool) float64 { return baseline.ThetaLyu(k, monotonic) }

//
// Post-processing estimators (internal/postprocess).
//

// BLUE computes the best linear unbiased estimate of the top-k query values
// from k independent noisy measurements and the k−1 adjacent gaps released by
// Noisy-Top-K-with-Gap, where lambda is Var(selection noise)/Var(measurement
// noise) (Theorem 3).
func BLUE(measurements, gaps []float64, lambda float64) ([]float64, error) {
	return postprocess.BLUE(measurements, gaps, lambda)
}

// BLUEFromVariances is BLUE with lambda derived from the two noise variances.
func BLUEFromVariances(measurements, gaps []float64, measurementVariance, selectionNoiseVariance float64) ([]float64, error) {
	return postprocess.BLUEFromVariances(measurements, gaps, measurementVariance, selectionNoiseVariance)
}

// ErrorReductionRatio returns the Corollary 1 ratio (1+λk)/(k+λk) between the
// BLUE's squared error and the measurement-only squared error.
func ErrorReductionRatio(k int, lambda float64) float64 {
	return postprocess.ErrorReductionRatio(k, lambda)
}

// TopKExpectedImprovementPercent returns the theoretical percent MSE
// improvement of the BLUE over plain measurements (Figures 1b and 2b).
func TopKExpectedImprovementPercent(k int, lambda float64) float64 {
	return postprocess.TopKExpectedImprovementPercent(k, lambda)
}

// SVTExpectedImprovementPercent returns the theoretical percent MSE
// improvement of combining Sparse-Vector gaps with measurements (Figures 1a
// and 2a).
func SVTExpectedImprovementPercent(k int, monotonic bool) float64 {
	return postprocess.SVTExpectedImprovementPercent(k, monotonic)
}

// CombineByInverseVariance merges two unbiased estimates of the same quantity
// into the minimum-variance linear combination and returns it with its
// variance (Section 6.2).
func CombineByInverseVariance(a, varA, b, varB float64) (estimate, variance float64, err error) {
	return postprocess.CombineByInverseVariance(a, varA, b, varB)
}

// GapConfidenceRadius returns the Lemma 5 radius t such that the true query
// answer is at least (gap + threshold) − t with the given confidence, for
// threshold noise rate eps0 and query noise rate epsStar.
func GapConfidenceRadius(confidence, eps0, epsStar float64) (float64, error) {
	return postprocess.GapConfidenceRadius(confidence, eps0, epsStar)
}

// GapLowerConfidenceBound returns the Lemma 5 lower confidence bound on a
// query's true answer given its released gap and the public threshold.
func GapLowerConfidenceBound(gap, threshold, confidence, eps0, epsStar float64) (float64, error) {
	return postprocess.GapLowerConfidenceBound(gap, threshold, confidence, eps0, epsStar)
}

//
// Privacy budget accounting (internal/accountant).
//

// Accountant tracks privacy-loss budget under sequential composition.
type Accountant = accountant.Accountant

// NewAccountant returns an accountant with the given total ε budget.
func NewAccountant(budget float64) (*Accountant, error) { return accountant.New(budget) }

//
// Transaction datasets (internal/dataset).
//

// Dataset is a transaction database whose item counts form the counting-query
// workload used throughout the paper's experiments.
type Dataset = dataset.Transactions

// ReadFIMIFile loads a transaction database in the FIMI text format (one
// transaction per line, space-separated item ids) — the format the paper's
// datasets are distributed in.
func ReadFIMIFile(path string) (*Dataset, error) { return dataset.ReadFIMIFile(path) }

// NewSyntheticBMSPOS generates the BMS-POS stand-in dataset (see DESIGN.md §5)
// scaled down by the given factor (1 = published size).
func NewSyntheticBMSPOS(seed uint64, scale int) *Dataset {
	return dataset.BMSPOSConfig().ScaledDown(scale).Generate(seed)
}

// NewSyntheticKosarak generates the Kosarak stand-in dataset scaled down by
// the given factor.
func NewSyntheticKosarak(seed uint64, scale int) *Dataset {
	return dataset.KosarakConfig().ScaledDown(scale).Generate(seed)
}

// NewSyntheticT40I10D100K generates the IBM Quest T40I10D100K dataset scaled
// down by the given factor.
func NewSyntheticT40I10D100K(seed uint64, scale int) *Dataset {
	return dataset.T40I10D100KConfig().ScaledDown(scale).Generate(seed)
}

// RandomThreshold draws a Sparse-Vector threshold between the top-2k-th and
// top-8k-th largest counts, the protocol of Section 7.2.
func RandomThreshold(src Source, counts []float64, k int) float64 {
	return dataset.RandomThreshold(src, counts, k)
}

//
// Server-side dataset catalog (internal/store).
//

// DatasetStore is the server-side catalog of named appendable datasets. Each
// registration precomputes the dataset's item-count vector once, and appends
// extend it incrementally (a delta-maintained copy replaces the current
// generation atomically); resolved requests are served from that cached
// slice, never by rescanning the transactions.
type DatasetStore = store.Store

// DatasetEntry is one catalogued dataset with its precomputed counts and
// resolution counters.
type DatasetEntry = store.Entry

// DatasetInfo summarises a catalogued dataset (stats plus the resolution and
// scan counters that make the count caching observable).
type DatasetInfo = store.Info

// DatasetStoreLimits bounds what a DatasetStore accepts: catalog size, item
// universe, and record count.
type DatasetStoreLimits = store.Limits

// DatasetPreload describes one dataset to catalogue at server construction:
// a FIMI-format file or a synthetic generator.
type DatasetPreload = store.Preload

// ErrUnknownDataset reports a lookup of an uncatalogued dataset name; the
// server maps it to a 404 with code "unknown_dataset".
var ErrUnknownDataset = store.ErrUnknownDataset

// NewDatasetStore returns an empty dataset catalog with the default limits.
func NewDatasetStore() *DatasetStore { return store.New() }

// NewDatasetStoreWithLimits returns an empty dataset catalog with the given
// limits.
func NewDatasetStoreWithLimits(lim DatasetStoreLimits) *DatasetStore {
	return store.NewWithLimits(lim)
}

// GenerateSyntheticDataset builds one of the calibrated synthetic stand-ins
// for the paper's datasets by kind: "bmspos", "kosarak" or "t40i10d100k".
func GenerateSyntheticDataset(kind string, scale int, seed uint64) (*Dataset, error) {
	return store.GenerateSynthetic(kind, scale, seed)
}

//
// Empirical privacy auditing (internal/validate).
//

// AuditMechanism adapts a mechanism for the empirical privacy audit: one run
// on the given answers, summarised as a discrete output key.
type AuditMechanism = validate.Mechanism

// AuditConfig controls the Monte-Carlo privacy audit.
type AuditConfig = validate.AuditConfig

// AuditResult is the outcome of an empirical privacy audit.
type AuditResult = validate.Result

// EstimateEpsilon estimates the empirical privacy loss of a mechanism from its
// output histograms on two adjacent query vectors.
func EstimateEpsilon(mech AuditMechanism, answersD, answersDPrime []float64, cfg AuditConfig) (AuditResult, error) {
	return validate.EstimateEpsilon(mech, answersD, answersDPrime, cfg)
}

// AuditTopK adapts Noisy-Top-K-with-Gap for auditing (keyed on the selected
// indices).
func AuditTopK(k int, epsilon float64, monotonic bool) AuditMechanism {
	return validate.TopKIndexMechanism(k, epsilon, monotonic)
}

// AuditAdaptiveSVT adapts Adaptive-Sparse-Vector-with-Gap for auditing (keyed
// on the per-query branch pattern).
func AuditAdaptiveSVT(k int, epsilon, threshold float64, monotonic bool) AuditMechanism {
	return validate.SVTPatternMechanism(k, epsilon, threshold, monotonic)
}

//
// End-to-end pipelines (internal/pipeline).
//

// TopKPipelineConfig configures the Section 5.2 select → measure → refine
// pipeline.
type TopKPipelineConfig = pipeline.TopKConfig

// TopKPipelineResult is the output of RunTopKPipeline.
type TopKPipelineResult = pipeline.TopKPipelineResult

// TopKEstimate is one refined estimate from the Top-K pipeline.
type TopKEstimate = pipeline.TopKEstimate

// SVTPipelineConfig configures the Section 6.2 threshold pipeline.
type SVTPipelineConfig = pipeline.SVTConfig

// SVTPipelineResult is the output of RunSVTPipeline.
type SVTPipelineResult = pipeline.SVTPipelineResult

// SVTEstimate is one refined above-threshold estimate from the SVT pipeline.
type SVTEstimate = pipeline.SVTEstimate

// RunTopKPipeline runs the full Section 5.2 protocol — Noisy-Top-K-with-Gap
// selection, Laplace measurement of the selected queries, and BLUE refinement
// — charging the optional accountant.
func RunTopKPipeline(src Source, answers []float64, cfg TopKPipelineConfig, acct *Accountant) (*TopKPipelineResult, error) {
	return pipeline.RunTopK(src, answers, cfg, acct)
}

// RunSVTPipeline runs the full Section 6.2 protocol — (Adaptive-)Sparse-
// Vector-with-Gap selection, Laplace measurement of the reported queries, and
// inverse-variance combination with Lemma 5 lower bounds — charging the
// optional accountant.
func RunSVTPipeline(src Source, answers []float64, cfg SVTPipelineConfig, acct *Accountant) (*SVTPipelineResult, error) {
	return pipeline.RunSVT(src, answers, cfg, acct)
}

//
// The unified mechanism engine (internal/engine).
//

// Mechanism is one servable DP workload behind the engine's uniform
// interface: Name, NewRequest, Validate, Cost and Execute. The server's
// generic handler, the batch executor and the CLIs all dispatch on it.
type Mechanism = engine.Mechanism

// MechanismRegistry is the fixed table of the five built-in mechanisms,
// looked up by name; the server mounts one endpoint per entry.
type MechanismRegistry = engine.Registry

// MechanismScratch holds the pooled request-scoped working memory a
// Mechanism.Execute draws from: noise and score buffers plus the backing
// arrays of the response's variable-length fields. Passing nil to Execute is
// always correct (buffers are allocated fresh); serving layers keep
// scratches in a sync.Pool and reuse them, releasing each one only after
// the response built from it has been encoded.
type MechanismScratch = engine.Scratch

// NewMechanismScratch returns an empty scratch, ready for pooling.
func NewMechanismScratch() *MechanismScratch { return engine.NewScratch() }

// MechanismRequest is the interface satisfied by every mechanism request
// type (anything embedding RequestCommon).
type MechanismRequest = engine.Request

// MechanismResponse is the interface satisfied by every mechanism response
// type (anything embedding engine.Billing).
type MechanismResponse = engine.Response

// MechanismLimits bounds request sizes at validation time.
type MechanismLimits = engine.Limits

// RequestCommon holds the request fields shared by every mechanism: tenant,
// epsilon, answers (inline, or resolved from a named dataset and query
// spec), monotonicity.
type RequestCommon = engine.Common

// QuerySpec names a counting-query workload over a catalogued dataset, in
// place of inline answers: the two leaf kinds ({"kind": "all_items"},
// {"kind": "item_count", "items": [...]}) plus the composable algebra —
// filters, thresholds, set operations, cross-dataset joins — that the
// server's query planner compiles into cached, sketch-pruned vectorized
// passes. See the README's "Query algebra" section for spec JSON examples.
type QuerySpec = engine.QuerySpec

// RecordPredicate is the per-record filter of a "filter" spec: item-in-set
// plus a record-length range.
type RecordPredicate = engine.RecordPredicate

// QueryResolver turns (dataset, spec) into query answers; the server injects
// a resolver backed by its DatasetStore, and direct engine callers can
// inject their own via ResolveMechanismRequest.
type QueryResolver = engine.Resolver

// Query spec kinds accepted in QuerySpec.Kind.
const (
	// QueryAllItems asks for every item's count — the Section 7 workload.
	QueryAllItems = engine.QueryAllItems
	// QueryItemCount asks for the counts of an explicit item list.
	QueryItemCount = engine.QueryItemCount
	// QueryFilter counts records matching a RecordPredicate, per item.
	QueryFilter = engine.QueryFilter
	// QueryThreshold masks an operand's counts to [min_count, max_count].
	QueryThreshold = engine.QueryThreshold
	// QueryUnion and QueryIntersect are elementwise max/min over operands.
	QueryUnion     = engine.QueryUnion
	QueryIntersect = engine.QueryIntersect
	// QueryMinus keeps the first operand where the second counts zero.
	QueryMinus = engine.QueryMinus
	// QueryJoin masks an operand by another dataset's item support.
	QueryJoin = engine.QueryJoin
)

// ErrBadQuerySpec reports a malformed dataset/query combination; the server
// maps it to a 400 with code "bad_query_spec".
var ErrBadQuerySpec = engine.ErrBadQuerySpec

// ResolveMechanismRequest fills a dataset-backed mechanism request's answers
// in place through the given resolver, as the server does between decoding
// and validation. It is a no-op for requests carrying inline answers.
func ResolveMechanismRequest(req MechanismRequest, r QueryResolver) error {
	return engine.ResolveRequest(req, r)
}

// Engine request/response bodies, shared by the HTTP API and direct engine
// callers.
type (
	// TopKRequest is the topk mechanism's request (POST /v1/topk).
	TopKRequest = engine.TopKRequest
	// TopKResponse is the topk mechanism's response.
	TopKResponse = engine.TopKResponse
	// MaxRequest is the max mechanism's request (POST /v1/max).
	MaxRequest = engine.MaxRequest
	// MaxResponse is the max mechanism's response.
	MaxResponse = engine.MaxResponse
	// SVTRequest is the svt mechanism's request (POST /v1/svt).
	SVTRequest = engine.SVTRequest
	// SVTResponse is the svt mechanism's response.
	SVTResponse = engine.SVTResponse
	// PipelineTopKRequest is the pipeline/topk mechanism's request
	// (POST /v1/pipeline/topk).
	PipelineTopKRequest = engine.PipelineTopKRequest
	// PipelineTopKResponse is the pipeline/topk mechanism's response.
	PipelineTopKResponse = engine.PipelineTopKResponse
	// PipelineSVTRequest is the pipeline/svt mechanism's request
	// (POST /v1/pipeline/svt).
	PipelineSVTRequest = engine.PipelineSVTRequest
	// PipelineSVTResponse is the pipeline/svt mechanism's response.
	PipelineSVTResponse = engine.PipelineSVTResponse
)

// DefaultMechanisms returns a registry with every mechanism the library
// serves: topk, max, svt, and the paper's end-to-end pipeline/topk and
// pipeline/svt workflows.
func DefaultMechanisms() *MechanismRegistry { return engine.DefaultRegistry() }

//
// Multi-tenant DP query serving (internal/server).
//

// Server is the multi-tenant HTTP/JSON query service over the engine's
// mechanisms: POST /v1/topk, /v1/svt, /v1/max, /v1/pipeline/topk and
// /v1/pipeline/svt run the mechanisms against per-tenant privacy budgets,
// POST /v1/batch executes several of them in one round trip under a single
// atomic multi-charge, GET /v1/tenants/{id}/budget reports a tenant's ledger
// with a per-mechanism breakdown, and GET /healthz and /metrics serve
// operations. See cmd/dpserver for the standalone binary.
type Server = server.Server

// BatchRequest is the body of POST /v1/batch: up to MaxBatch mechanism
// requests charged atomically (all-or-nothing) and executed in one round
// trip.
type BatchRequest = server.BatchRequest

// BatchItem is one entry of a BatchRequest.
type BatchItem = server.BatchItem

// BatchResponse is the body of a successful POST /v1/batch.
type BatchResponse = server.BatchResponse

// ServerConfig configures a Server: listen address, initial per-tenant ε
// budget, worker-pool size and noise seed.
type ServerConfig = server.Config

// TenantRegistry is the server's concurrency-safe map of tenant → privacy
// accountant, exposed for embedding the serving layer in larger programs.
type TenantRegistry = server.Registry

// NewServer constructs the multi-tenant DP query service. Mount its Handler
// into an existing http.Server, or use ListenAndServe/Shutdown directly.
func NewServer(cfg ServerConfig) (*Server, error) { return server.New(cfg) }

// NewTenantRegistry returns a standalone tenant registry provisioning each
// new tenant with the given initial ε budget. maxTenants caps how many
// tenants may be auto-provisioned (zero means unlimited).
func NewTenantRegistry(initialBudget float64, maxTenants int) (*TenantRegistry, error) {
	return server.NewRegistry(initialBudget, maxTenants)
}

//
// Durable service state (internal/persist).
//

// PersistLog is the durable state log backing a persistent Server: an
// append-only JSON-lines WAL of admitted budget charges and dataset
// registrations, compacted into atomic snapshots. Open one on a state
// directory with OpenPersist and hand it to ServerConfig.Persist; a
// restarted server then resumes with the exact spent-budget state (per
// mechanism) and re-registered datasets of its predecessor.
type PersistLog = persist.Log

// PersistOptions configures durability: fsync mode, flush cadence and
// snapshot compaction threshold.
type PersistOptions = persist.Options

// FsyncMode selects when the WAL is fsynced: FsyncBatch (grouped, off the
// request hot path — the default), FsyncAlways (per charge) or FsyncOff.
type FsyncMode = persist.FsyncMode

// Fsync modes accepted by PersistOptions and the dpserver -fsync flag.
const (
	FsyncBatch  = persist.FsyncBatch
	FsyncAlways = persist.FsyncAlways
	FsyncOff    = persist.FsyncOff
)

// PersistState is the replayed durable state: per-tenant spending and the
// dataset records, as returned by PersistLog.State.
type PersistState = persist.State

// DatasetRecord is one journalled dataset registration.
type DatasetRecord = persist.DatasetRecord

// OpenPersist opens (creating if necessary) a durable state directory,
// replaying the snapshot and WAL — recovering a torn tail to the last
// complete record — and returns the log ready for ServerConfig.Persist.
func OpenPersist(dir string, opts PersistOptions) (*PersistLog, error) {
	return persist.Open(dir, opts)
}

// ParseFsyncMode validates an fsync-mode string ("batch", "always", "off";
// empty selects the default, FsyncBatch).
func ParseFsyncMode(s string) (FsyncMode, error) { return persist.ParseFsyncMode(s) }

//
// Randomness-alignment verification (internal/alignment).
//

// AlignmentReport summarises a white-box randomness-alignment verification.
type AlignmentReport = alignment.Report

// VerifyTopKAlignment checks, by sampling, that the Equation (2) randomness
// alignment of Theorem 2 holds for the given Noisy-Top-K-with-Gap mechanism on
// a sensitivity-1 adjacent pair of answer vectors: the aligned run reproduces
// the output and its cost stays within ε.
func VerifyTopKAlignment(m *TopKWithGap, answersD, answersDPrime []float64, trials int, seed uint64) (AlignmentReport, error) {
	return alignment.VerifyTopK(m, answersD, answersDPrime, trials, seed)
}

// VerifyAdaptiveSVTAlignment checks, by sampling, that the Equation (3)
// randomness alignment of Theorem 4 holds for the given
// Adaptive-Sparse-Vector-with-Gap mechanism on a sensitivity-1 adjacent pair.
func VerifyAdaptiveSVTAlignment(m *AdaptiveSVTWithGap, answersD, answersDPrime []float64, trials int, seed uint64) (AlignmentReport, error) {
	return alignment.VerifyAdaptiveSVT(m, answersD, answersDPrime, trials, seed)
}
