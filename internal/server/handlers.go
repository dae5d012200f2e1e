package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"github.com/freegap/freegap/internal/accountant"
	"github.com/freegap/freegap/internal/engine"
	"github.com/freegap/freegap/internal/rng"
	"github.com/freegap/freegap/internal/telemetry"
)

// scratchPool recycles the request-scoped working memory of the whole
// mechanism pipeline — the request body bytes, the decoded request's
// variable-length fields, the mechanisms' noise and score buffers, the
// responses' backing arrays and the encoded output — so the steady-state hot
// path allocates no per-request buffers at all. A scratch is released only
// after the response built from it has been written (both the response value
// and the output bytes alias the scratch).
var scratchPool = sync.Pool{New: func() any { return engine.NewScratch() }}

// putScratch trims oversized buffers (one huge request must not pin its
// buffers in the pool forever) and recycles the scratch.
func putScratch(scr *engine.Scratch) {
	scr.Trim()
	scratchPool.Put(scr)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := HealthResponse{
		Status:        "ok",
		Tenants:       s.reg.Len(),
		Workers:       s.cfg.Workers,
		Mechanisms:    engine.DefaultRegistry().Names(),
		Datasets:      s.datasets.Len(),
		UptimeSeconds: time.Since(s.started).Seconds(),
	}
	if s.persist != nil {
		resp.WALGeneration = s.persist.Generation()
	}
	// A dead persistence log is a page: the server still answers, but every
	// new charge is no longer journalled and a restart would refund it.
	if err := s.persistErr(); err != nil {
		resp.Status = "degraded"
		resp.PersistError = err.Error()
	}
	writeJSON(w, http.StatusOK, resp)
}

// persistErr reports the durable log's sticky error (nil on an in-memory
// server).
func (s *Server) persistErr() error {
	if s.persist == nil {
		return nil
	}
	return s.persist.Err()
}

// persistReady fails budget-mutating requests closed while the durable log
// is dead: a charge that can no longer be journalled would be refunded by
// the next restart, so the privacy accountant refuses it outright (503)
// rather than silently degrading to in-memory accounting. On failure it
// writes the error response and returns (outcome, false).
func (s *Server) persistReady(w http.ResponseWriter) (string, bool) {
	err := s.persistErr()
	if err == nil {
		return "", true
	}
	writeError(w, http.StatusServiceUnavailable, ErrorBody{
		Code:    CodeUnavailable,
		Message: fmt.Sprintf("durable state log failed, refusing new charges until restart: %v", err),
	})
	return CodeUnavailable, false
}

// handleBudget serves a tenant's budget ledger. The default response is the
// aggregated snapshot — atomic spent/remaining reads plus the accountant's
// incrementally-maintained per-mechanism map — so polling it costs O(number
// of mechanisms), not O(number of charges). ?log=1 opts in to the raw
// per-charge log for audit tooling that actually wants it.
func (s *Server) handleBudget(w http.ResponseWriter, r *http.Request) {
	t := s.beginTrace(w, r)
	s.finishTrace(t, labelTenants, s.serveBudget(t, r))
}

func (s *Server) serveBudget(w *traceWriter, r *http.Request) string {
	tenant := r.PathValue("id")
	w.tenant = tenant
	acct, ok := s.reg.Lookup(tenant)
	if !ok {
		writeError(w, http.StatusNotFound, ErrorBody{
			Code:    CodeUnknownTenant,
			Message: fmt.Sprintf("tenant %q has not issued any requests", tenant),
		})
		return CodeUnknownTenant
	}
	resp := BudgetResponse{
		Tenant:            tenant,
		Budget:            acct.Budget(),
		Spent:             acct.Spent(),
		Remaining:         acct.Remaining(),
		RemainingFraction: acct.RemainingFraction(),
		Charges:           acct.ChargeCount(),
		SpentByMechanism:  acct.SpentByLabel(),
	}
	if r.URL.Query().Get("log") == "1" {
		charges := acct.Charges()
		resp.Log = make([]ChargeJSON, len(charges))
		for i, c := range charges {
			resp.Log[i] = ChargeJSON{Mechanism: c.Label, Epsilon: c.Epsilon}
		}
	}
	writeJSON(w, http.StatusOK, resp)
	return "ok"
}

// handleMechanism serves POST /v1/<name> for one registered mechanism. It is
// the whole serving pipeline, written once for every mechanism the engine
// knows — decode → validate → charge → pool-execute → encode — wrapped with
// the in-flight gauge and per-outcome request counters.
func (s *Server) handleMechanism(mech engine.Mechanism) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.hot.inFlight.Inc()
		defer s.hot.inFlight.Dec()
		t := s.beginTrace(w, r)
		outcome := s.serveMechanism(t, r, mech)
		s.finishTrace(t, mech.Name(), outcome)
		s.finishRequest(mech.Name(), outcome)
	}
}

// serveMechanism runs the generic pipeline and returns the outcome code for
// the request counters. Each stage boundary marks the trace context, so the
// request's latency decomposes into decode → resolve → validate → charge →
// execute → encode with nothing unattributed.
func (s *Server) serveMechanism(w *traceWriter, r *http.Request, mech engine.Mechanism) string {
	// One scratch carries the whole request through the pipeline: the body is
	// read into it, the request decodes into it, the mechanism executes out
	// of it and the response encodes into it. It goes back to the pool only
	// after the response bytes are on the wire.
	scr := scratchPool.Get().(*engine.Scratch)
	defer putScratch(scr)
	if code, ok := s.readBody(w, r, scr); !ok {
		return code
	}
	req, code, ok := s.decodeRequest(w, mech, scr)
	if !ok {
		return code
	}
	w.mark(stageDecode)
	// ?explain=1 returns the compiled query plan instead of executing the
	// mechanism: it resolves (so the plan cache and skipping observables
	// behave exactly as a real request would) but never charges budget and
	// never releases noisy answers.
	if explainRequested(r) {
		return s.serveExplain(w, req)
	}
	// Dataset-backed requests get their answers filled from the catalog's
	// cached item counts before validation, so Validate (and therefore the
	// charge) sees exactly what the mechanism will run on.
	if code, ok := s.resolve(w, req); !ok {
		return code
	}
	w.mark(stageResolve)
	base := req.Base()
	w.tenant, w.dataset = base.Tenant, base.Dataset
	if err := mech.Validate(req, s.limits()); err != nil {
		return badRequest(w, err)
	}

	if code, ok := s.persistReady(w); !ok {
		return code
	}
	w.mark(stageValidate)

	// Reserving the cost up front (rather than settling afterwards) is what
	// keeps concurrent requests from jointly overspending: the accountant
	// admits or rejects each reservation atomically. Validate ran first, so
	// a request the mechanism would reject never burns budget.
	tenant := base.Tenant
	cost := mech.Cost(req)
	remaining, code, ok := s.charge(w, tenant, mech.Name(), cost)
	if !ok {
		return code
	}
	// Re-check after the charge: in FsyncAlways mode the journal write runs
	// synchronously inside the charge, so a failure there must block THIS
	// request's release — a charge that never reached disk would be
	// refunded by the next restart while its DP results were already out.
	// (The charge stays spent; refusing the release is the safe direction.)
	if code, ok := s.persistReady(w); !ok {
		return code
	}
	w.eps = cost
	w.mark(stageCharge)

	var (
		resp   engine.Response
		runErr error
	)
	if err := s.pool.do(r.Context(), func(src rng.Source) {
		resp, runErr = mech.Execute(src, req, scr)
	}); err != nil {
		return poolError(w, err)
	}
	if runErr != nil {
		return internalError(w, runErr)
	}
	w.mark(stageExecute)

	resp.SetBilling(tenant, cost, remaining)
	return s.writeResponse(w, resp, scr)
}

// readBody reads the request body into the scratch under the configured size
// cap. On failure it writes the error response and returns (outcome, false).
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, scr *engine.Scratch) (string, bool) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	buf := scr.Body[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err != nil {
			scr.Body = buf
			if err == io.EOF {
				return "", true
			}
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				writeError(w, http.StatusRequestEntityTooLarge, ErrorBody{
					Code:    CodeRequestTooLarge,
					Message: fmt.Sprintf("request body exceeds the server limit of %d bytes", tooLarge.Limit),
				})
				return CodeRequestTooLarge, false
			}
			return badRequest(w, fmt.Errorf("decoding JSON body: %v", err)), false
		}
	}
}

// decodeRequest parses the body bytes in scr into a request for mech
// through the engine codec; the request then aliases the scratch. The
// semantics — unknown fields and trailing values rejected — and the error
// messages clients see are those of the stdlib strict decoder.
func (s *Server) decodeRequest(w http.ResponseWriter, mech engine.Mechanism, scr *engine.Scratch) (engine.Request, string, bool) {
	req, ok, err := engine.DecodeRequest(mech, scr.Body, scr)
	switch {
	case !ok:
		return nil, internalError(w, fmt.Errorf("no codec for mechanism %q", mech.Name())), false
	case err == nil:
		return req, "", true
	case errors.Is(err, engine.ErrTrailingData):
		return nil, badRequest(w, errors.New("request body holds more than one JSON value")), false
	default:
		return nil, badRequest(w, fmt.Errorf("decoding JSON body: %v", err)), false
	}
}

// writeResponse encodes resp through the zero-copy codec into the scratch's
// output buffer and writes it once, returning the outcome code. A ?trace=1
// request gets the breakdown spliced into the already-encoded bytes at the
// offset AppendResponse reserved — the encode the trace reports is the
// encode that shipped, not a dry run. A response JSON cannot represent (a
// non-finite float) is a 500 internal_error. Its charge stays spent: the
// failure is a function of the mechanism's noisy output, which the charge
// already covers.
func (s *Server) writeResponse(t *traceWriter, resp engine.Response, scr *engine.Scratch) string {
	out, off, ok, err := engine.AppendResponse(scr.Out[:0], resp)
	scr.Out = out
	if !ok {
		err = fmt.Errorf("no codec for response type %T", resp)
	}
	if err != nil {
		return internalError(t, err)
	}
	out = append(out, '\n')
	scr.Out = out
	if !t.traceOn {
		writeRawJSON(t, http.StatusOK, out)
		t.mark(stageEncode)
		return "ok"
	}
	// The bytes above are the real encode; close the stage before rendering
	// the breakdown so the trace accounts for it.
	t.mark(stageEncode)
	// The body buffer is free once decoding is done (decoded strings are
	// heap copies), so it backs the trace splice.
	tb, _ := appendTraceJSON(append(scr.Body[:0], `,"trace":`...), t.traceJSON())
	scr.Body = tb[:0]
	t.Header().Set("Content-Type", "application/json")
	t.WriteHeader(http.StatusOK)
	_, _ = t.Write(out[:off])
	_, _ = t.Write(tb)
	_, _ = t.Write(out[off:])
	return "ok"
}

// handleUnknownMechanism serves every POST under /v1/ that no mechanism or
// fixed endpoint claimed, however many path segments it has.
func (s *Server) handleUnknownMechanism(w http.ResponseWriter, r *http.Request) {
	t := s.beginTrace(w, r)
	// The label is pinned to "unknown" rather than the request path:
	// attacker-chosen label values would grow the metric registry (and
	// every /metrics scrape) without bound.
	s.countRequest("unknown", CodeUnknownMechanism)
	// Report the full registry-style name ("pipeline/median", not "median"),
	// since that is what the client must fix.
	name := strings.TrimPrefix(r.URL.Path, "/v1/")
	writeError(t, http.StatusNotFound, ErrorBody{
		Code:    CodeUnknownMechanism,
		Message: fmt.Sprintf("unknown mechanism %q (valid: %v, batch)", name, engine.DefaultRegistry().Names()),
	})
	s.finishTrace(t, "unknown", CodeUnknownMechanism)
}

// limits returns the engine validation limits from the server configuration.
func (s *Server) limits() engine.Limits {
	return engine.Limits{MaxAnswers: s.cfg.MaxAnswers}
}

// finishRequest records the outcome counters shared by every endpoint.
func (s *Server) finishRequest(mech, outcome string) {
	s.countRequest(mech, outcome)
	if outcome == CodeBudgetExhausted {
		if c, ok := s.hot.exhausted[mech]; ok {
			c.Inc()
		} else {
			s.telemetry.Counter("freegap_budget_exhausted_total", telemetry.L("mechanism", mech)).Inc()
		}
	}
}

// countRequest increments the pre-resolved request counter for the
// (mechanism, outcome) pair, falling back to a registry lookup for any pair
// not provisioned in newHotCounters.
func (s *Server) countRequest(mech, code string) {
	if byCode, ok := s.hot.requests[mech]; ok {
		if c, ok := byCode[code]; ok {
			c.Inc()
			return
		}
	}
	s.telemetry.Counter("freegap_requests_total",
		telemetry.L("mechanism", mech), telemetry.L("code", code)).Inc()
}

// decode reads and strictly parses the JSON request body into dst. On failure
// it writes the error response and returns (outcome, false).
func (s *Server) decode(w http.ResponseWriter, r *http.Request, dst any) (string, bool) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return writeDecodeError(w, fmt.Errorf("decoding JSON body: %w", err)), false
	}
	if dec.More() {
		return badRequest(w, errors.New("request body holds more than one JSON value")), false
	}
	return "", true
}

// writeDecodeError writes the response for a body that failed to decode —
// 413 when it ran past the body cap, 400 otherwise — and returns its
// outcome code.
func writeDecodeError(w http.ResponseWriter, err error) string {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, ErrorBody{
			Code:    CodeRequestTooLarge,
			Message: fmt.Sprintf("request body exceeds the server limit of %d bytes", tooLarge.Limit),
		})
		return CodeRequestTooLarge
	}
	return badRequest(w, err)
}

// charge reserves eps from the tenant's budget before the mechanism runs.
// On failure it writes the error response and returns ok = false with the
// outcome code.
func (s *Server) charge(w http.ResponseWriter, tenant, mech string, eps float64) (remaining float64, outcome string, ok bool) {
	remaining, err := s.reg.Charge(tenant, mech, eps)
	outcome, ok = s.classifyChargeError(w, tenant, remaining, err)
	return remaining, outcome, ok
}

// classifyChargeError writes the error response for a failed charge (single
// or batch) and returns its outcome code; a nil error yields ok = true.
func (s *Server) classifyChargeError(w http.ResponseWriter, tenant string, remaining float64, err error) (outcome string, ok bool) {
	var budgetErr *accountant.BudgetError
	switch {
	case err == nil:
		return "", true
	case errors.Is(err, accountant.ErrBudgetExceeded):
		body := ErrorBody{
			Code:      CodeBudgetExhausted,
			Message:   fmt.Sprintf("tenant %q: %v", tenant, err),
			Remaining: &remaining,
		}
		if errors.As(err, &budgetErr) {
			exhausted := budgetErr.Exhausted()
			body.Exhausted = &exhausted
		}
		writeError(w, http.StatusPaymentRequired, body)
		return CodeBudgetExhausted, false
	case errors.Is(err, ErrTenantLimit):
		writeError(w, http.StatusTooManyRequests, ErrorBody{Code: CodeTenantLimit, Message: err.Error()})
		return CodeTenantLimit, false
	default:
		return badRequest(w, err), false
	}
}

func badRequest(w http.ResponseWriter, err error) string {
	writeError(w, http.StatusBadRequest, ErrorBody{Code: CodeInvalidRequest, Message: err.Error()})
	return CodeInvalidRequest
}

// statusClientClosedRequest is nginx's non-standard code for "the client went
// away before we could answer"; it keeps routine disconnects out of the
// internal_error metrics. The reserved budget stays spent — the charge was
// admitted before the mechanism ran, and refunding on disconnect would let a
// client probe for free.
const statusClientClosedRequest = 499

// poolError classifies a pool submission failure: context cancellation means
// the client gave up while queued, pool shutdown means the server is
// draining; anything else is an internal fault.
func poolError(w http.ResponseWriter, err error) string {
	switch {
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		writeError(w, statusClientClosedRequest, ErrorBody{
			Code:    CodeCancelled,
			Message: fmt.Sprintf("request cancelled before a worker was available: %v", err),
		})
		return CodeCancelled
	case errors.Is(err, errPoolClosed):
		writeError(w, http.StatusServiceUnavailable, ErrorBody{
			Code:    CodeUnavailable,
			Message: "server is shutting down",
		})
		return CodeUnavailable
	default:
		return internalError(w, err)
	}
}

func internalError(w http.ResponseWriter, err error) string {
	writeError(w, http.StatusInternalServerError, ErrorBody{Code: CodeInternal, Message: err.Error()})
	return CodeInternal
}

func writeError(w http.ResponseWriter, status int, body ErrorBody) {
	// Every handler serves through a traceWriter, so error bodies can carry
	// the request id without threading it through each call site.
	if t, ok := w.(*traceWriter); ok {
		body.RequestID = t.reqID
	}
	if out, ok := appendErrorEnvelope(make([]byte, 0, 256), &body); ok {
		writeRawJSON(w, status, append(out, '\n'))
		return
	}
	writeJSON(w, status, ErrorEnvelope{Error: body})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// writeRawJSON writes pre-encoded JSON bytes (trailing newline included, to
// match what json.Encoder.Encode wrote on this wire before).
func writeRawJSON(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}
