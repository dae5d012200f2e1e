package engine

// The three raw free-gap mechanisms as engine Mechanisms: thin wrappers that
// map JSON-shaped requests onto internal/core and back. Validation always
// includes the core constructor so a request the mechanism itself would
// reject never reaches the charging step.

import (
	"errors"
	"fmt"
	"math"

	"github.com/freegap/freegap/internal/core"
	"github.com/freegap/freegap/internal/rng"
)

// errWrongRequestType reports a Request of the wrong concrete type reaching
// a mechanism — a programming error in the dispatching layer, not a client
// fault.
func errWrongRequestType(mech string, req Request) error {
	return fmt.Errorf("engine: %s mechanism received a %T request", mech, req)
}

//
// topk — Noisy-Top-K-with-Gap (Algorithm 1).
//

// TopKRequest is the body of POST /v1/topk.
type TopKRequest struct {
	Common
	// K is the number of queries to select.
	K int `json:"k"`
}

// SelectionJSON is one selected query in a TopKResponse.
type SelectionJSON struct {
	// Index is the query's position in the request's answers.
	Index int `json:"index"`
	// Gap is the released noisy gap to the next-ranked query.
	Gap float64 `json:"gap"`
}

// TopKResponse is the body of a successful POST /v1/topk.
type TopKResponse struct {
	Billing
	// Selections lists the k selected queries in descending noisy order.
	Selections []SelectionJSON `json:"selections"`
}

type topkMechanism struct{}

func (topkMechanism) Name() string        { return "topk" }
func (topkMechanism) NewRequest() Request { return &TopKRequest{} }

func (topkMechanism) Validate(req Request, lim Limits) error {
	r, ok := req.(*TopKRequest)
	if !ok {
		return errWrongRequestType("topk", req)
	}
	if err := r.Common.validate(lim); err != nil {
		return err
	}
	if r.K <= 0 || r.K >= len(r.Answers) {
		return fmt.Errorf("k = %d must satisfy 1 <= k <= len(answers)-1 = %d", r.K, len(r.Answers)-1)
	}
	_, err := core.NewTopKWithGap(r.K, r.Epsilon, r.Monotonic)
	return err
}

func (topkMechanism) Cost(req Request) float64 { return req.Base().Epsilon }

func (topkMechanism) Execute(src rng.Source, req Request, scr *Scratch) (Response, error) {
	r, ok := req.(*TopKRequest)
	if !ok {
		return nil, errWrongRequestType("topk", req)
	}
	if scr == nil {
		scr = NewScratch()
	}
	// Value construction: RunScratch re-validates k and ε, so the allocating
	// constructor buys nothing on the hot path.
	mech := core.TopKWithGap{K: r.K, Epsilon: r.Epsilon, Monotonic: r.Monotonic}
	res, err := mech.RunScratch(src, r.Answers, &scr.TopK)
	if err != nil {
		return nil, err
	}
	return topkResponse(res, scr), nil
}

// UnitNoiseLen reports one unit-scale draw per answer (Algorithm 1 noises
// every query once), or -1 from the lazy sampler's cutoff on.
func (topkMechanism) UnitNoiseLen(req Request) int {
	r, ok := req.(*TopKRequest)
	if !ok {
		return -1
	}
	return unitNoiseLen(len(r.Answers))
}

// unitNoiseLen is the unit-noise window a topk or max request over n answers
// takes: n draws, or -1 when core samples the run lazily and so consumes a
// data-dependent number of draws.
func unitNoiseLen(n int) int {
	var laplace core.TopKWithGap // both mechanisms draw Laplace noise
	if laplace.SamplesLazily(n) {
		return -1
	}
	return n
}

func (topkMechanism) ExecuteUnitNoise(req Request, unit []float64, scr *Scratch) (Response, error) {
	r, ok := req.(*TopKRequest)
	if !ok {
		return nil, errWrongRequestType("topk", req)
	}
	if scr == nil {
		scr = NewScratch()
	}
	mech := core.TopKWithGap{K: r.K, Epsilon: r.Epsilon, Monotonic: r.Monotonic}
	res, err := mech.RunPrenoised(unit, r.Answers, &scr.TopK)
	if err != nil {
		return nil, err
	}
	return topkResponse(res, scr), nil
}

// topkResponse maps a core result onto the JSON response, backing the
// selections with the scratch.
func topkResponse(res *core.TopKResult, scr *Scratch) *TopKResponse {
	sels := scr.selectionsBuf(len(res.Selections))
	for _, sel := range res.Selections {
		sels = append(sels, SelectionJSON{Index: sel.Index, Gap: sel.Gap})
	}
	scr.selections = sels
	return &TopKResponse{Selections: sels}
}

//
// max — Noisy-Max-with-Gap (the k = 1 special case).
//

// MaxRequest is the body of POST /v1/max.
type MaxRequest struct {
	Common
}

// MaxResponse is the body of a successful POST /v1/max.
type MaxResponse struct {
	Billing
	// Index is the approximately largest query.
	Index int `json:"index"`
	// Gap is the noisy gap to the runner-up.
	Gap float64 `json:"gap"`
}

type maxMechanism struct{}

func (maxMechanism) Name() string        { return "max" }
func (maxMechanism) NewRequest() Request { return &MaxRequest{} }

func (maxMechanism) Validate(req Request, lim Limits) error {
	r, ok := req.(*MaxRequest)
	if !ok {
		return errWrongRequestType("max", req)
	}
	if err := r.Common.validate(lim); err != nil {
		return err
	}
	if len(r.Answers) < 2 {
		return errors.New("max needs at least 2 answers")
	}
	return nil
}

func (maxMechanism) Cost(req Request) float64 { return req.Base().Epsilon }

func (maxMechanism) Execute(src rng.Source, req Request, scr *Scratch) (Response, error) {
	r, ok := req.(*MaxRequest)
	if !ok {
		return nil, errWrongRequestType("max", req)
	}
	if scr == nil {
		scr = NewScratch()
	}
	// The k = 1 special case through the same scratch-backed run as topk;
	// the selection is copied out, so nothing in the response aliases scr.
	mech := core.TopKWithGap{K: 1, Epsilon: r.Epsilon, Monotonic: r.Monotonic}
	res, err := mech.RunScratch(src, r.Answers, &scr.TopK)
	if err != nil {
		return nil, err
	}
	return &MaxResponse{Index: res.Selections[0].Index, Gap: res.Selections[0].Gap}, nil
}

// UnitNoiseLen reports one unit-scale draw per answer, or -1 from the lazy
// sampler's cutoff on.
func (maxMechanism) UnitNoiseLen(req Request) int {
	r, ok := req.(*MaxRequest)
	if !ok {
		return -1
	}
	return unitNoiseLen(len(r.Answers))
}

func (maxMechanism) ExecuteUnitNoise(req Request, unit []float64, scr *Scratch) (Response, error) {
	r, ok := req.(*MaxRequest)
	if !ok {
		return nil, errWrongRequestType("max", req)
	}
	if scr == nil {
		scr = NewScratch()
	}
	mech := core.TopKWithGap{K: 1, Epsilon: r.Epsilon, Monotonic: r.Monotonic}
	res, err := mech.RunPrenoised(unit, r.Answers, &scr.TopK)
	if err != nil {
		return nil, err
	}
	return &MaxResponse{Index: res.Selections[0].Index, Gap: res.Selections[0].Gap}, nil
}

//
// svt — (Adaptive-)Sparse-Vector-with-Gap (Algorithm 2).
//

// SVTRequest is the body of POST /v1/svt.
type SVTRequest struct {
	Common
	// K is the number of above-threshold answers to provision for.
	K int `json:"k"`
	// Threshold is the public threshold.
	Threshold float64 `json:"threshold"`
	// Adaptive selects Adaptive-Sparse-Vector-with-Gap (Algorithm 2) instead
	// of plain Sparse-Vector-with-Gap.
	Adaptive bool `json:"adaptive,omitempty"`
}

// SVTAnswerJSON is one above-threshold answer in an SVTResponse.
type SVTAnswerJSON struct {
	// Index is the query's position in the request's answers.
	Index int `json:"index"`
	// Gap is the released noisy gap above the (noisy) threshold.
	Gap float64 `json:"gap"`
	// Estimate is gap + threshold, the selection-stage estimate of the answer.
	Estimate float64 `json:"estimate"`
	// Branch names the adaptive branch that answered: below, top or middle.
	Branch string `json:"branch"`
}

// SVTResponse is the body of a successful POST /v1/svt.
type SVTResponse struct {
	Billing
	// Above lists the above-threshold answers in stream order.
	Above []SVTAnswerJSON `json:"above"`
	// AboveCount is len(Above).
	AboveCount int `json:"above_count"`
	// QueriesProcessed is how far into the stream the mechanism got before
	// stopping.
	QueriesProcessed int `json:"queries_processed"`
	// MechanismSpent is the budget the mechanism consumed internally (the
	// adaptive variant may spend less than the reservation).
	MechanismSpent float64 `json:"mechanism_spent"`
}

type svtMechanism struct{}

func (svtMechanism) Name() string        { return "svt" }
func (svtMechanism) NewRequest() Request { return &SVTRequest{} }

func (svtMechanism) Validate(req Request, lim Limits) error {
	r, ok := req.(*SVTRequest)
	if !ok {
		return errWrongRequestType("svt", req)
	}
	if err := r.Common.validate(lim); err != nil {
		return err
	}
	if r.K <= 0 {
		return fmt.Errorf("k = %d must be positive", r.K)
	}
	if math.IsNaN(r.Threshold) || math.IsInf(r.Threshold, 0) {
		return fmt.Errorf("threshold %v must be finite", r.Threshold)
	}
	if !r.Adaptive {
		_, err := core.NewSVTWithGap(r.K, r.Epsilon, r.Threshold, r.Monotonic)
		return err
	}
	_, err := core.NewAdaptiveSVTWithGap(r.K, r.Epsilon, r.Threshold, r.Monotonic)
	return err
}

// Cost is the full reservation: the adaptive variant may spend less
// internally, but the tenant is charged the reservation so concurrent
// requests stay sound.
func (svtMechanism) Cost(req Request) float64 { return req.Base().Epsilon }

func (svtMechanism) Execute(src rng.Source, req Request, scr *Scratch) (Response, error) {
	r, ok := req.(*SVTRequest)
	if !ok {
		return nil, errWrongRequestType("svt", req)
	}
	if scr == nil {
		scr = NewScratch()
	}
	var (
		res *core.SVTGapResult
		err error
	)
	if r.Adaptive {
		mech := &core.AdaptiveSVTWithGap{
			K: r.K, Epsilon: r.Epsilon, Threshold: r.Threshold, Monotonic: r.Monotonic,
		}
		res, err = mech.RunScratch(src, r.Answers, &scr.SVT)
	} else {
		var mech *core.SVTWithGap
		mech, err = core.NewSVTWithGap(r.K, r.Epsilon, r.Threshold, r.Monotonic)
		if err == nil {
			res, err = mech.RunScratch(src, r.Answers, &scr.SVT)
		}
	}
	if err != nil {
		return nil, err
	}
	out := &SVTResponse{
		AboveCount:       res.AboveCount,
		QueriesProcessed: len(res.Items),
		MechanismSpent:   res.BudgetSpent,
	}
	above := scr.svtAnswersBuf(res.AboveCount)
	for _, it := range res.Items {
		if !it.Above {
			continue
		}
		above = append(above, SVTAnswerJSON{
			Index:    it.Index,
			Gap:      it.Gap,
			Estimate: it.Gap + r.Threshold,
			Branch:   it.Branch.String(),
		})
	}
	scr.svtAnswers = above
	out.Above = above
	return out, nil
}
