// Package engine is the unified mechanism-execution layer between the
// library's differentially private mechanisms and everything that serves
// them. Each of the five servable workloads — the raw free-gap mechanisms
// (topk, max, svt) and the paper's end-to-end select–measure–refine
// pipelines (pipeline/topk, pipeline/svt) — implements the one Mechanism
// interface (Name, NewRequest, Validate, Cost, Execute) and is looked up by
// name in the fixed DefaultRegistry table, so a caller written once against
// the interface (the HTTP server's generic handler, the CLIs, the batch
// executor) serves every mechanism.
//
// The contract mirrors the serving layer's budget discipline:
//
//   - Validate must reject every malformed request (including constructor
//     failures of the underlying mechanism) so that a request which cannot
//     run never charges budget.
//   - Cost returns the ε the caller must reserve before Execute runs. For
//     reservation-style mechanisms (the adaptive Sparse Vector variants may
//     spend less internally) it is the full reservation, keeping concurrent
//     callers sound.
//   - Execute performs the mechanism on a caller-supplied noise source and
//     returns a Response whose billing fields the caller stamps afterwards
//     via SetBilling.
package engine

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"github.com/freegap/freegap/internal/core"
	"github.com/freegap/freegap/internal/rng"
)

// MinEpsilon is the smallest per-request ε accepted. Below it the noise
// scale is astronomically useless anyway, and admitting near-zero charges
// would let one tenant grow its accountant's audit log without bound.
const MinEpsilon = 1e-9

// MaxEpsilon is the largest per-request ε accepted. Beyond it the noise
// scale underflows to zero variance, which breaks the pipelines'
// variance-weighted refinement after the budget was already charged (found
// by FuzzDecodeRequest with ε = 1e200) — and such a request offers no
// meaningful privacy in the first place.
const MaxEpsilon = 1e6

// MaxTenantNameLen bounds tenant identifiers so hostile clients cannot grow
// registry key space without bound per entry.
const MaxTenantNameLen = 128

// ErrUnknownMechanism is returned by Registry.Get for unregistered names.
var ErrUnknownMechanism = errors.New("engine: unknown mechanism")

// Limits bounds request sizes at validation time; the serving layer fills it
// from its configuration. A zero MaxAnswers means unlimited.
type Limits struct {
	// MaxAnswers bounds len(answers) per request.
	MaxAnswers int
}

// Common holds the request fields shared by every mechanism: who pays, how
// much, and over which query answers. The answers come in one of two ways —
// inline (the client computed them) or resolved server-side by naming a
// catalogued Dataset plus a QuerySpec, the paper's curator trust model.
type Common struct {
	// Tenant identifies whose privacy budget pays for the query.
	Tenant string `json:"tenant"`
	// Epsilon is the privacy budget this request spends (or reserves).
	Epsilon float64 `json:"epsilon"`
	// Answers are the true query answers (sensitivity 1 each). Leave empty
	// when Dataset and Queries are set; ResolveRequest fills them before
	// validation.
	Answers []float64 `json:"answers,omitempty"`
	// Monotonic declares a monotonic (e.g. counting) query list, halving the
	// required noise scale. For dataset-backed requests ResolveRequest
	// overwrites it with the resolver's verdict.
	Monotonic bool `json:"monotonic,omitempty"`
	// Dataset names a server-side catalogued dataset to answer Queries
	// against, in place of inline Answers.
	Dataset string `json:"dataset,omitempty"`
	// Queries is the counting-query spec resolved against Dataset.
	Queries *QuerySpec `json:"queries,omitempty"`
	// resolved records that ResolveRequest filled Answers through the
	// resolver, whose vectors are finite by construction, so validate does
	// not re-check each answer.
	resolved bool
}

// Base returns the shared fields; embedding Common gives every concrete
// request type this method, which is all the Request interface asks for.
func (c *Common) Base() *Common { return c }

// validate checks the shared fields against the limits.
func (c *Common) validate(lim Limits) error {
	if err := ValidTenant(c.Tenant); err != nil {
		return err
	}
	if !(c.Epsilon >= MinEpsilon) || !(c.Epsilon <= MaxEpsilon) {
		return fmt.Errorf("epsilon %v must be in [%g, %g]", c.Epsilon, MinEpsilon, MaxEpsilon)
	}
	if len(c.Answers) == 0 {
		return errors.New("answers must be non-empty (inline, or resolved from a dataset and query spec)")
	}
	if lim.MaxAnswers > 0 && len(c.Answers) > lim.MaxAnswers {
		return fmt.Errorf("%d answers exceeds the server limit of %d", len(c.Answers), lim.MaxAnswers)
	}
	if c.resolved {
		return nil
	}
	for i, a := range c.Answers {
		if math.IsNaN(a) || math.IsInf(a, 0) {
			return fmt.Errorf("answers[%d] = %v is not finite", i, a)
		}
	}
	return nil
}

// ValidTenant reports whether the tenant id is acceptable.
func ValidTenant(tenant string) error {
	if tenant == "" {
		return errors.New("tenant must be non-empty")
	}
	if len(tenant) > MaxTenantNameLen {
		return fmt.Errorf("tenant id longer than %d bytes", MaxTenantNameLen)
	}
	return nil
}

// Request is a mechanism request: any concrete request type embedding Common.
type Request interface {
	Base() *Common
}

// Billing holds the fields every response reports about what the request
// cost. Concrete response types embed it and the executing layer stamps it
// after the charge succeeds.
type Billing struct {
	Tenant string `json:"tenant"`
	// EpsilonSpent is the budget charged to the tenant for this request.
	EpsilonSpent float64 `json:"epsilon_spent"`
	// BudgetRemaining is the tenant's unspent budget after this request.
	BudgetRemaining float64 `json:"budget_remaining"`
	// Trace is an inline trace payload, omitted when nil. The server leaves
	// it nil: it splices the ?trace=1 stage-timing breakdown into the
	// encoded bytes at AppendResponse's traceOff, which yields what
	// encoding/json renders for the response with Trace set.
	Trace any `json:"trace,omitempty"`
}

// SetBilling fills the billing fields; it satisfies the Response interface
// for every response type embedding Billing.
func (b *Billing) SetBilling(tenant string, epsilonSpent, budgetRemaining float64) {
	b.Tenant = tenant
	b.EpsilonSpent = epsilonSpent
	b.BudgetRemaining = budgetRemaining
}

// Response is a mechanism response: any concrete response type embedding
// Billing.
type Response interface {
	SetBilling(tenant string, epsilonSpent, budgetRemaining float64)
}

// Scratch holds the request-scoped working memory one Execute needs — noise
// and score buffers for the core mechanisms plus the backing arrays of the
// response's variable-length fields. Serving layers keep Scratch values in a
// sync.Pool and thread one through each request, so the steady-state hot
// path performs no per-request buffer allocations; every buffer grows
// amortized to the largest request it has served. A Scratch must only ever
// be used by one Execute at a time, and a response built from it must be
// fully consumed (encoded) before the Scratch is reused, because the
// response's slices are backed by it.
type Scratch struct {
	// TopK backs the topk/max mechanisms (noisy scores, rank index,
	// selections).
	TopK core.TopKScratch
	// SVT backs the Sparse Vector mechanisms (prefilled noise chunk, items).
	SVT core.SVTScratch
	// Body backs the serving layer's request-body reads.
	Body []byte
	// Out backs the serving layer's response encoding (see AppendResponse).
	Out []byte
	// selections backs TopKResponse.Selections.
	selections []SelectionJSON
	// svtAnswers backs SVTResponse.Above.
	svtAnswers []SVTAnswerJSON

	// Decoder state (see DecodeRequest): the request values and the backing
	// arrays of their variable-length fields.
	topk    TopKRequest
	max     MaxRequest
	svt     SVTRequest
	ptopk   PipelineTopKRequest
	psvt    PipelineSVTRequest
	query   QuerySpec
	answers []float64
	items   []int32
	key     []byte
	str     []byte
}

// maxPooledBuf bounds the transient byte/answer buffers a pooled Scratch may
// retain, so one oversized request doesn't pin worst-case memory in the pool
// forever.
const (
	maxPooledBuf     = 1 << 20
	maxPooledAnswers = 1 << 16
)

// Trim drops oversized transient buffers; serving layers call it before
// returning a Scratch to the pool.
func (s *Scratch) Trim() {
	if cap(s.Body) > maxPooledBuf {
		s.Body = nil
	}
	if cap(s.Out) > maxPooledBuf {
		s.Out = nil
	}
	if cap(s.answers) > maxPooledAnswers {
		s.answers = nil
	}
	if cap(s.items) > maxPooledAnswers {
		s.items = nil
	}
	if cap(s.query.Items) > maxPooledAnswers ||
		s.query.Where != nil || s.query.Of != nil || s.query.On != nil {
		// Composite spec trees are heap-allocated per request; drop them so
		// the pool retains only the flat leaf-spec state.
		s.query = QuerySpec{}
	}
}

// NewScratch returns an empty Scratch (the zero value also works; the
// constructor exists for pools: sync.Pool{New: func() any { return
// engine.NewScratch() }}).
func NewScratch() *Scratch { return &Scratch{} }

// selectionsBuf returns a length-0, capacity-amortized SelectionJSON buffer.
func (s *Scratch) selectionsBuf(n int) []SelectionJSON {
	if cap(s.selections) < n {
		s.selections = make([]SelectionJSON, 0, n)
	}
	s.selections = s.selections[:0]
	return s.selections
}

// svtAnswersBuf returns a length-0, capacity-amortized SVTAnswerJSON buffer.
func (s *Scratch) svtAnswersBuf(n int) []SVTAnswerJSON {
	if cap(s.svtAnswers) < n {
		s.svtAnswers = make([]SVTAnswerJSON, 0, n)
	}
	s.svtAnswers = s.svtAnswers[:0]
	return s.svtAnswers
}

// Mechanism is one servable DP workload. Implementations are stateless —
// all run state lives in the request and the caller-supplied scratch — so
// one registered instance serves arbitrarily many concurrent executions.
type Mechanism interface {
	// Name is the stable identifier the mechanism is registered and routed
	// under (it becomes the POST /v1/<name> endpoint and the accountant's
	// charge label).
	Name() string
	// NewRequest returns a zero request of the mechanism's concrete request
	// type, for the caller to decode into.
	NewRequest() Request
	// Validate rejects malformed requests. A request that fails Validate
	// must never be charged or executed.
	Validate(req Request, lim Limits) error
	// Cost returns the ε to reserve from the paying tenant before Execute.
	// It is only meaningful for requests that passed Validate.
	Cost(req Request) float64
	// Execute runs the mechanism, drawing noise from src and working memory
	// from scr (nil means allocate fresh — correct, just not pooled). The
	// returned Response has its billing fields unset; the caller stamps
	// them. With a non-nil scr the response may share the scratch's backing
	// arrays: encode it before reusing scr.
	Execute(src rng.Source, req Request, scr *Scratch) (Response, error)
}

// UnitNoiser is implemented by mechanisms whose noise consumption, for some
// requests, factors into a fixed number of unit-scale Laplace draws times a
// per-request scale. Batch callers exploit it to fill one shared noise
// vector for many sub-requests in a single vectorized pass and hand each
// mechanism its window. The contract is bit-exactness for every request with
// UnitNoiseLen ≥ 0: ExecuteUnitNoise fed the unit-scale draws that src would
// have produced must return exactly what Execute(src, ...) returns, because
// the scalar sampler's last operation is the multiply by scale. topk and max
// qualify only below core's lazy-sampling cutoff: from it on they draw a
// data-dependent number of samples, report -1, and run through Execute.
type UnitNoiser interface {
	// UnitNoiseLen returns how many unit-scale Laplace draws executing req
	// consumes, or -1 when prenoised execution does not apply to this
	// request (the caller then falls back to Execute with a live source).
	// Only meaningful for requests that passed Validate and resolution.
	UnitNoiseLen(req Request) int
	// ExecuteUnitNoise is Execute with the noise pre-drawn: unit holds
	// exactly UnitNoiseLen(req) unit-scale Laplace samples in draw order.
	ExecuteUnitNoise(req Request, unit []float64, scr *Scratch) (Response, error)
}

// Registry is the fixed table of the mechanisms the library serves, built
// once by DefaultRegistry and never mutated, so it is safe for concurrent
// use without a lock.
type Registry struct {
	byName map[string]Mechanism
	names  []string // sorted
}

// Get returns the mechanism registered under name.
func (r *Registry) Get(name string) (Mechanism, error) {
	m, ok := r.byName[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q (valid: %v)", ErrUnknownMechanism, name, r.names)
	}
	return m, nil
}

// Names returns the registered mechanism names, sorted.
func (r *Registry) Names() []string { return append([]string(nil), r.names...) }

// Mechanisms returns the registered mechanisms in name order.
func (r *Registry) Mechanisms() []Mechanism {
	out := make([]Mechanism, len(r.names))
	for i, name := range r.names {
		out[i] = r.byName[name]
	}
	return out
}

// defaultRegistry is the table DefaultRegistry returns.
var defaultRegistry = func() *Registry {
	r := &Registry{byName: make(map[string]Mechanism)}
	for _, m := range []Mechanism{topkMechanism{}, maxMechanism{}, svtMechanism{}, pipelineTopKMechanism{}, pipelineSVTMechanism{}} {
		r.byName[m.Name()] = m
		r.names = append(r.names, m.Name())
	}
	sort.Strings(r.names)
	return r
}()

// DefaultRegistry returns the registry of every mechanism the library
// serves: the three raw free-gap mechanisms (topk, max, svt) and the
// paper's two end-to-end pipelines (pipeline/topk, pipeline/svt).
func DefaultRegistry() *Registry { return defaultRegistry }
