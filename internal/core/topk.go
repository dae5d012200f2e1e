package core

import (
	"errors"
	"fmt"

	"github.com/freegap/freegap/internal/rng"
)

// Common validation errors shared by the mechanisms in this package.
var (
	ErrNoQueries      = errors.New("core: no queries")
	ErrInvalidK       = errors.New("core: k must be positive and at most the number of queries")
	ErrInvalidEpsilon = errors.New("core: epsilon must be positive")
)

// TopKWithGap is the Noisy-Top-K-with-Gap mechanism (Algorithm 1).
//
// Given n sensitivity-1 queries it adds Laplace(2k/ε) noise to every answer
// (Laplace(k/ε) when the query list is monotonic, Definition 7) and returns
// the indices of the k largest noisy answers in descending order together
// with, for each of them, the noisy gap to the next-best noisy answer. By
// Theorem 2 the whole output — indices and gaps — satisfies ε-differential
// privacy (ε/2 would suffice for monotonic queries with the general scale;
// equivalently, the monotonic scale k/ε spends exactly ε).
type TopKWithGap struct {
	// K is the number of queries to select.
	K int
	// Epsilon is the privacy budget consumed by one Run.
	Epsilon float64
	// Monotonic declares that the query list is monotonic (e.g. counting
	// queries), which halves the required noise scale.
	Monotonic bool
	// Noise selects the noise distribution; the zero value is Laplace.
	Noise NoiseKind
	// DiscreteBase is the granularity γ for NoiseDiscreteLaplace; zero means
	// machine-epsilon granularity.
	DiscreteBase float64
}

// NewTopKWithGap returns a Laplace-noise mechanism with the given parameters.
func NewTopKWithGap(k int, epsilon float64, monotonic bool) (*TopKWithGap, error) {
	if k <= 0 {
		return nil, fmt.Errorf("%w: k = %d", ErrInvalidK, k)
	}
	if !(epsilon > 0) {
		return nil, fmt.Errorf("%w: %v", ErrInvalidEpsilon, epsilon)
	}
	return &TopKWithGap{K: k, Epsilon: epsilon, Monotonic: monotonic}, nil
}

// NoiseScale returns the per-query noise scale: 2k/ε, or k/ε when the query
// list is monotonic.
func (m *TopKWithGap) NoiseScale() float64 {
	if m.Monotonic {
		return float64(m.K) / m.Epsilon
	}
	return 2 * float64(m.K) / m.Epsilon
}

// GapVariance returns the variance of each released adjacent gap
// gᵢ = q̃ⱼᵢ − q̃ⱼᵢ₊₁, namely twice the per-query noise variance
// (16k²/ε² in general, 4k²/ε² for monotonic lists). The post-processing
// estimators in internal/postprocess consume this value.
func (m *TopKWithGap) GapVariance() float64 {
	return 2 * rng.LaplaceVariance(m.NoiseScale())
}

// PerQueryNoiseVariance returns the variance of the noise added to a single
// query (2·scale²), the Var(ηᵢ) of Theorem 3.
func (m *TopKWithGap) PerQueryNoiseVariance() float64 {
	return rng.LaplaceVariance(m.NoiseScale())
}

// Selection is one selected query: its index in the input and the noisy gap
// separating it from the next-best noisy query.
type Selection struct {
	// Index is the position of the selected query in the input slice.
	Index int
	// Gap is the noisy difference between this query's noisy value and the
	// noisy value of the next-ranked query (the (i+1)-th largest). It is
	// always strictly positive.
	Gap float64
}

// TopKResult is the output of one Noisy-Top-K-with-Gap run.
type TopKResult struct {
	// Selections lists the k selected queries in descending noisy order; the
	// i-th entry's Gap is the gap between the i-th and (i+1)-th largest noisy
	// queries.
	Selections []Selection
	// Epsilon is the privacy budget this run consumed.
	Epsilon float64
	// Monotonic records whether the monotonic noise scale was used.
	Monotonic bool
	// noiseScale is retained for the estimators.
	noiseScale float64
}

// Indices returns the selected indices in descending noisy order.
func (r *TopKResult) Indices() []int {
	out := make([]int, len(r.Selections))
	for i, s := range r.Selections {
		out[i] = s.Index
	}
	return out
}

// Gaps returns the adjacent gaps g₁, …, g_k in order.
func (r *TopKResult) Gaps() []float64 {
	out := make([]float64, len(r.Selections))
	for i, s := range r.Selections {
		out[i] = s.Gap
	}
	return out
}

// PairwiseGap estimates the gap between the a-th and b-th selected queries
// (0-based ranks, a < b ≤ k): Σ_{i=a}^{b−1} gᵢ, exactly the telescoping sum of
// Section 5.1. Its variance is (b−a+… ) — more precisely 2·noiseVariance,
// independent of how far apart the ranks are, because the intermediate noisy
// values cancel.
func (r *TopKResult) PairwiseGap(a, b int) (float64, error) {
	if a < 0 || b <= a || b > len(r.Selections) {
		return 0, fmt.Errorf("core: invalid rank pair (%d, %d) for %d selections", a, b, len(r.Selections))
	}
	sum := 0.0
	for i := a; i < b; i++ {
		sum += r.Selections[i].Gap
	}
	return sum, nil
}

// GapVariance mirrors TopKWithGap.GapVariance for results whose mechanism is
// no longer at hand.
func (r *TopKResult) GapVariance() float64 {
	return 2 * rng.LaplaceVariance(r.noiseScale)
}

// PerQueryNoiseVariance mirrors TopKWithGap.PerQueryNoiseVariance.
func (r *TopKResult) PerQueryNoiseVariance() float64 {
	return rng.LaplaceVariance(r.noiseScale)
}

// TopKScratch holds the request-scoped buffers one Noisy-Top-K run needs:
// the noisy-score vector, the rank index vector, the selections backing
// array, and the lazy sampler's drawn positions and values. Serving layers
// pool TopKScratch values so the hot path performs no per-request
// allocations; the zero value is ready to use and the buffers grow amortized
// to the largest request they have served.
type TopKScratch struct {
	noisy      []float64
	idx        []int
	selections []Selection
	pos        []int
	vals       []float64
}

// headVals returns a length-n float buffer, separate from floats, for the
// lazy sampler's drawn values.
func (s *TopKScratch) headVals(n int) []float64 {
	if cap(s.vals) < n {
		s.vals = make([]float64, n)
	}
	s.vals = s.vals[:n]
	return s.vals
}

// floats returns a length-n float buffer backed by the scratch.
func (s *TopKScratch) floats(n int) []float64 {
	if cap(s.noisy) < n {
		s.noisy = make([]float64, n)
	}
	s.noisy = s.noisy[:n]
	return s.noisy
}

// ints returns a length-n int buffer backed by the scratch.
func (s *TopKScratch) ints(n int) []int {
	if cap(s.idx) < n {
		s.idx = make([]int, n)
	}
	s.idx = s.idx[:n]
	return s.idx
}

// sels returns a length-n Selection buffer backed by the scratch.
func (s *TopKScratch) sels(n int) []Selection {
	if cap(s.selections) < n {
		s.selections = make([]Selection, n)
	}
	s.selections = s.selections[:n]
	return s.selections
}

// Run executes the mechanism on the true query answers. It needs k+1 ≤ n
// queries because the k-th gap is measured against the (k+1)-th largest noisy
// answer.
func (m *TopKWithGap) Run(src rng.Source, answers []float64) (*TopKResult, error) {
	return m.RunScratch(src, answers, nil)
}

// RunScratch is Run drawing its working memory from scr (nil allocates
// fresh). Below lazyMinQueries answers, or for non-Laplace noise, the noise
// vector is filled in one vectorized pass — same draw order as scalar
// sampling, so fixed-seed outputs are unchanged. From lazyMinQueries on,
// Laplace noise is drawn lazily, near the (k+1)-th largest answer only (see
// lazy.go), with the same output distribution. The result's Selections
// slice is backed by the scratch: the result must be consumed before scr is
// reused for another run.
func (m *TopKWithGap) RunScratch(src rng.Source, answers []float64, scr *TopKScratch) (*TopKResult, error) {
	n := len(answers)
	if n == 0 {
		return nil, ErrNoQueries
	}
	if m.K <= 0 || m.K >= n {
		return nil, fmt.Errorf("%w: k = %d with %d queries (need k+1 ≤ n)", ErrInvalidK, m.K, n)
	}
	if !(m.Epsilon > 0) {
		return nil, fmt.Errorf("%w: %v", ErrInvalidEpsilon, m.Epsilon)
	}
	if scr == nil {
		scr = &TopKScratch{}
	}
	scale := m.NoiseScale()
	if m.SamplesLazily(n) {
		if res := m.runLazy(src, answers, scr, scale); res != nil {
			return res, nil
		}
	}
	nz := noiser{kind: m.Noise, base: m.DiscreteBase}

	// One vectorized noise pass, then one add pass over the (read-only)
	// answers. answers may be a slice shared across requests (the dataset
	// catalog's cached counts), so it is never written.
	noisy := scr.floats(n)
	nz.fill(src, scale, noisy)
	for i, a := range answers {
		noisy[i] += a
	}
	return m.finish(noisy, scr, scale), nil
}

// RunPrenoised is RunScratch with the noise already drawn: unit holds
// len(answers) unit-scale Laplace samples (one per answer, ascending draw
// order) and the mechanism scales them by NoiseScale in place of sampling.
// Because the scalar sampler's final operation is the multiply by scale,
// answers[i] + NoiseScale()*unit[i] is bit-identical to what RunScratch
// computes from the same draws — batch callers fill one shared unit-noise
// vector and carve it into per-request windows without changing any
// fixed-seed output. Only the default Laplace distribution factors this way;
// other noise kinds are rejected.
func (m *TopKWithGap) RunPrenoised(unit, answers []float64, scr *TopKScratch) (*TopKResult, error) {
	n := len(answers)
	if n == 0 {
		return nil, ErrNoQueries
	}
	if m.K <= 0 || m.K >= n {
		return nil, fmt.Errorf("%w: k = %d with %d queries (need k+1 ≤ n)", ErrInvalidK, m.K, n)
	}
	if !(m.Epsilon > 0) {
		return nil, fmt.Errorf("%w: %v", ErrInvalidEpsilon, m.Epsilon)
	}
	if m.Noise != NoiseLaplace {
		return nil, fmt.Errorf("core: prenoised execution requires Laplace noise, have %v", m.Noise)
	}
	if len(unit) != n {
		return nil, fmt.Errorf("core: %d unit-noise samples for %d answers", len(unit), n)
	}
	if scr == nil {
		scr = &TopKScratch{}
	}
	scale := m.NoiseScale()
	noisy := scr.floats(n)
	for i, a := range answers {
		noisy[i] = a + scale*unit[i]
	}
	return m.finish(noisy, scr, scale), nil
}

// partialTopCutoff bounds the top-(k+1) size for which the insertion-based
// partial selection runs; beyond it the shift cost of the ordered window
// loses to the bounded heap's log-time updates.
const partialTopCutoff = 64

// finish ranks the k+1 largest noisy answers and materialises the selections
// from the adjacent gaps. Small selections over long vectors take a partial
// insertion pass (one comparison per non-qualifying element); otherwise a
// min-heap keeps the k+1 largest seen so far, O(n log k), and is then
// heap-sorted descending. Both paths produce the same descending order
// whenever the noisy values are distinct, which continuous noise guarantees
// almost surely.
func (m *TopKWithGap) finish(noisy []float64, scr *TopKScratch, scale float64) *TopKResult {
	n := len(noisy)
	top := m.K + 1
	idx := scr.ints(top)
	if top <= partialTopCutoff && n >= 4*top {
		// Partial selection: keep idx[:count] as the current top values in
		// descending order, insertion-shifting qualifiers into place. Most
		// elements fail the single threshold comparison against the current
		// minimum and cost nothing else.
		count := 0
		for i := 0; i < n; i++ {
			v := noisy[i]
			if count == top {
				if v <= noisy[idx[top-1]] {
					continue
				}
				count--
			}
			j := count
			for j > 0 && noisy[idx[j-1]] < v {
				idx[j] = idx[j-1]
				j--
			}
			idx[j] = i
			count++
		}
	} else {
		// Bounded heap: idx is a min-heap (by noisy value) of the top
		// indices seen so far; most elements fail the one comparison
		// against its root. Swapping each root behind the shrinking heap
		// then leaves idx in descending order.
		for i := range idx {
			idx[i] = i
		}
		for i := top/2 - 1; i >= 0; i-- {
			siftDownIdx(noisy, idx, i)
		}
		for i := top; i < n; i++ {
			if noisy[i] > noisy[idx[0]] {
				idx[0] = i
				siftDownIdx(noisy, idx, 0)
			}
		}
		for end := top - 1; end > 0; end-- {
			idx[0], idx[end] = idx[end], idx[0]
			siftDownIdx(noisy, idx[:end], 0)
		}
	}

	selections := scr.sels(m.K)
	for i := 0; i < m.K; i++ {
		selections[i] = Selection{
			Index: idx[i],
			Gap:   noisy[idx[i]] - noisy[idx[i+1]],
		}
	}
	return &TopKResult{
		Selections: selections,
		Epsilon:    m.Epsilon,
		Monotonic:  m.Monotonic,
		noiseScale: scale,
	}
}

// siftDownIdx restores the min-heap order of h, indices into v ordered by
// their values, below position i.
func siftDownIdx(v []float64, h []int, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && v[h[c+1]] < v[h[c]] {
			c++
		}
		if !(v[h[c]] < v[h[i]]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// MaxWithGapResult is the output of the k = 1 special case.
type MaxWithGapResult struct {
	// Index is the index of the approximately largest query.
	Index int
	// Gap is the noisy gap between the largest and second-largest noisy
	// queries (always positive).
	Gap float64
	// Epsilon is the budget consumed.
	Epsilon float64
}

// MaxWithGap runs Noisy-Max-with-Gap: it returns the index of the
// approximately largest query together with the noisy gap to the runner-up,
// at the same ε cost as classic Noisy Max.
func MaxWithGap(src rng.Source, answers []float64, epsilon float64, monotonic bool) (*MaxWithGapResult, error) {
	m, err := NewTopKWithGap(1, epsilon, monotonic)
	if err != nil {
		return nil, err
	}
	res, err := m.Run(src, answers)
	if err != nil {
		return nil, err
	}
	return &MaxWithGapResult{
		Index:   res.Selections[0].Index,
		Gap:     res.Selections[0].Gap,
		Epsilon: epsilon,
	}, nil
}
