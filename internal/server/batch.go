package server

// POST /v1/batch: up to MaxBatch mechanism requests in one round trip,
// paid for with a single atomic multi-charge against the batch tenant's
// accountant. The charge is all-or-nothing — every item's cost is reserved
// in one accountant transaction or the whole batch is refused with a 402 —
// so a batch can never overspend what the same requests issued serially
// could, no matter how many batches race for the budget concurrently.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"github.com/freegap/freegap/internal/accountant"
	"github.com/freegap/freegap/internal/engine"
	"github.com/freegap/freegap/internal/rng"
)

// mechBatch is the metrics label for the batch endpoint.
const mechBatch = "batch"

// batchItem is one decoded, validated batch entry awaiting execution.
type batchItem struct {
	mech engine.Mechanism
	req  engine.Request
	cost float64
	// noiseOff/noiseLen locate the item's window in the batch-wide unit
	// noise vector; noiseLen < 0 means the mechanism does not support
	// prenoised execution and draws from a live source instead.
	noiseOff, noiseLen int
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.hot.inFlight.Inc()
	defer s.hot.inFlight.Dec()
	t := s.beginTrace(w, r)
	outcome := s.serveBatch(t, r)
	s.finishTrace(t, mechBatch, outcome)
	s.finishRequest(mechBatch, outcome)
}

func (s *Server) serveBatch(w *traceWriter, r *http.Request) string {
	var req BatchRequest
	if code, ok := s.decode(w, r, &req); !ok {
		return code
	}
	w.mark(stageDecode)
	w.tenant = req.Tenant
	if err := engine.ValidTenant(req.Tenant); err != nil {
		return badRequest(w, err)
	}
	if len(req.Requests) == 0 {
		return badRequest(w, errors.New("batch holds no requests"))
	}
	if len(req.Requests) > s.cfg.MaxBatch {
		return badRequest(w, fmt.Errorf("batch of %d requests exceeds the server limit of %d", len(req.Requests), s.cfg.MaxBatch))
	}

	// Stage 1: decode, resolve and validate every item. Any failure rejects
	// the whole batch before a single ε is reserved, keeping the charge
	// all-or-nothing across validation too. Each item's work is marked to
	// its own trace stage; marks accumulate, so the batch's decode, resolve
	// and validate stages are the sums over its items.
	items := make([]batchItem, len(req.Requests))
	charges := make([]accountant.Charge, len(req.Requests))
	lim := s.limits()
	mechs := engine.DefaultRegistry()
	for i, entry := range req.Requests {
		mech, err := mechs.Get(entry.Mechanism)
		if err != nil {
			return badRequest(w, fmt.Errorf("requests[%d]: unknown mechanism %q (valid: %v)", i, entry.Mechanism, mechs.Names()))
		}
		if len(entry.Request) == 0 {
			return badRequest(w, fmt.Errorf("requests[%d]: missing request body", i))
		}
		// Items decode with a nil scratch on purpose: one scratch hosts one
		// request value per type, and a batch holds many requests of the
		// same type concurrently.
		mreq, ok, err := engine.DecodeRequest(mech, entry.Request, nil)
		switch {
		case !ok:
			return internalError(w, fmt.Errorf("requests[%d]: no codec for mechanism %q", i, mech.Name()))
		case errors.Is(err, engine.ErrTrailingData):
			return badRequest(w, fmt.Errorf("requests[%d]: request holds more than one JSON value", i))
		case err != nil:
			return badRequest(w, fmt.Errorf("requests[%d]: decoding request: %v", i, err))
		}
		// The batch tenant pays for every item; an item naming a different
		// tenant is almost certainly a client bug, so reject it loudly
		// rather than silently re-billing.
		base := mreq.Base()
		switch base.Tenant {
		case "", req.Tenant:
			base.Tenant = req.Tenant
		default:
			return badRequest(w, fmt.Errorf("requests[%d]: tenant %q does not match the batch tenant %q", i, base.Tenant, req.Tenant))
		}
		w.mark(stageDecode)
		// Resolve dataset-backed items before validation, like the single
		// path does; a resolution failure rejects the whole batch with the
		// item's structured code, keeping the charge all-or-nothing.
		if err := engine.ResolveRequest(mreq, s.resolver()); err != nil {
			return s.writeResolveError(w, fmt.Errorf("requests[%d]: %w", i, err))
		}
		w.mark(stageResolve)
		if err := mech.Validate(mreq, lim); err != nil {
			return badRequest(w, fmt.Errorf("requests[%d]: %v", i, err))
		}
		cost := mech.Cost(mreq)
		items[i] = batchItem{mech: mech, req: mreq, cost: cost}
		charges[i] = accountant.Charge{Label: mech.Name(), Epsilon: cost}
		w.mark(stageValidate)
	}

	// Stage 2: one atomic multi-charge, refused outright while the durable
	// journal is dead (fail-closed). Charging under the mechanism labels
	// (not "batch") keeps the tenant's per-mechanism ledger breakdown exact.
	if code, ok := s.persistReady(w); !ok {
		return code
	}
	remaining, err := s.reg.ChargeBatch(req.Tenant, charges)
	if code, ok := s.classifyChargeError(w, req.Tenant, remaining, err); !ok {
		return code
	}
	// Re-check after the charge (see serveMechanism): an FsyncAlways
	// journal failure during this charge must block the batch's release.
	if code, ok := s.persistReady(w); !ok {
		return code
	}
	w.mark(stageCharge)

	// Stage 3a: pre-size one noise requirement across the whole batch. Every
	// item whose mechanism factors its noise into unit-scale Laplace draws
	// (engine.UnitNoiser) gets a window in one shared vector, filled in a
	// single vectorized pass by one worker; the per-item executions then
	// scale their window in place of sampling — bit-identical outputs, one
	// source acquisition instead of one per item. Items that cannot prenoise
	// (SVT's draw count is data-dependent) keep drawing from a live source.
	totalNoise := 0
	for i := range items {
		it := &items[i]
		it.noiseLen = -1
		if un, ok := it.mech.(engine.UnitNoiser); ok {
			if n := un.UnitNoiseLen(it.req); n >= 0 {
				it.noiseOff, it.noiseLen = totalNoise, n
				totalNoise += n
			}
		}
	}
	var unit []float64
	if totalNoise > 0 {
		buf := make([]float64, totalNoise)
		if err := s.pool.do(r.Context(), func(src rng.Source) {
			unit = rng.LaplaceVec(src, 1, totalNoise, buf)
		}); err != nil {
			// The batch is already charged; fall back to per-item sources
			// rather than failing every item over a cancelled prefill.
			unit = nil
		}
	}

	// Stage 3b: execute the admitted items concurrently across the worker
	// pool. Execution failures are per-item — the batch's reservation stays
	// spent, exactly as a serial request's would. Each item draws its own
	// scratch from the pool (they run concurrently), and every scratch is
	// held until the whole batch response is encoded: item responses alias
	// their scratch's buffers.
	results := make([]BatchItemResult, len(items))
	scratches := make([]*engine.Scratch, len(items))
	var total float64
	var wg sync.WaitGroup
	for i := range items {
		it := &items[i]
		total += it.cost
		results[i].Mechanism = it.mech.Name()
		wg.Add(1)
		go func() {
			defer wg.Done()
			scr := scratchPool.Get().(*engine.Scratch)
			scratches[i] = scr
			var (
				resp   engine.Response
				runErr error
			)
			if err := s.pool.do(r.Context(), func(src rng.Source) {
				if unit != nil && it.noiseLen >= 0 {
					un := it.mech.(engine.UnitNoiser)
					resp, runErr = un.ExecuteUnitNoise(it.req, unit[it.noiseOff:it.noiseOff+it.noiseLen], scr)
				} else {
					resp, runErr = it.mech.Execute(src, it.req, scr)
				}
			}); err != nil {
				results[i].Error = batchExecError(err)
				return
			}
			if runErr != nil {
				results[i].Error = &ErrorBody{Code: CodeInternal, Message: runErr.Error()}
				return
			}
			resp.SetBilling(req.Tenant, it.cost, remaining)
			results[i].Response = resp
		}()
	}
	wg.Wait()
	w.mark(stageExecute)
	w.eps = total

	resp := BatchResponse{
		Tenant:          req.Tenant,
		Results:         results,
		EpsilonSpent:    total,
		BudgetRemaining: remaining,
	}
	outcome := s.writeBatchResponse(w, &resp)
	for _, scr := range scratches {
		if scr != nil {
			putScratch(scr)
		}
	}
	return outcome
}

// writeBatchResponse encodes the batch response through the zero-copy codecs
// into a pooled buffer and writes it once, returning the outcome code. Trace
// is the response's last field, so a ?trace=1 breakdown — rendered after the
// real encode it has to account for — is appended before the closing brace
// instead of re-encoding the whole batch.
func (s *Server) writeBatchResponse(w *traceWriter, resp *BatchResponse) string {
	scr := scratchPool.Get().(*engine.Scratch)
	defer putScratch(scr)
	out, ok := appendBatchResponse(scr.Out[:0], resp)
	scr.Out = out
	if !ok {
		return internalError(w, errors.New("encoding batch response: a value has no JSON encoding"))
	}
	if !w.traceOn {
		out = append(out, '\n')
		scr.Out = out
		writeRawJSON(w, http.StatusOK, out)
		w.mark(stageEncode)
		return "ok"
	}
	w.mark(stageEncode)
	out = out[:len(out)-1] // reopen the object: trace is the last field
	out, _ = appendTraceJSON(append(out, `,"trace":`...), w.traceJSON())
	out = append(out, '}', '\n')
	scr.Out = out
	writeRawJSON(w, http.StatusOK, out)
	return "ok"
}

// batchExecError maps a pool submission failure to a per-item error body.
func batchExecError(err error) *ErrorBody {
	switch {
	case errors.Is(err, errPoolClosed):
		return &ErrorBody{Code: CodeUnavailable, Message: "server is shutting down"}
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return &ErrorBody{Code: CodeCancelled, Message: err.Error()}
	default:
		return &ErrorBody{Code: CodeInternal, Message: err.Error()}
	}
}
