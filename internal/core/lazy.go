package core

import (
	"math"

	"github.com/freegap/freegap/internal/rng"
)

// Lazy Noisy-Top-K-with-Gap: Algorithm 1 releases only the k+1 largest noisy
// answers, so over a long vector most of its n Laplace draws land far below
// anything it releases. The lazy sampler draws exactly the same joint law of
// the released top-(k+1) — indices and values — while drawing full noise only
// for the answers near the top:
//
//  1. Set a level L = c₍ₖ₊₁₎ − 8b below the (k+1)-th largest answer and a
//     head cutoff H = L − 10b.
//  2. Draw full Laplace(b) noise for every answer cᵢ ≥ H (the head).
//  3. A tail answer cᵢ < H has a noisy value above L with probability
//     pᵢ = ½e^{−(L−cᵢ)/b} ≤ p̄ = ½e^{−(L−H)/b}, and, given that it does, the
//     value is L + Exp(b) whatever cᵢ is (the Laplace tail beyond its centre
//     is exponential). Visiting a Bernoulli(p̄) subset of positions by
//     geometric skips and keeping a visited tail position with probability
//     pᵢ/p̄ gives independent Bernoulli(pᵢ) trials.
//  4. If at least k+1 noisy values exceed L, the top k+1 are among them and
//     are selected from the drawn values alone. Otherwise every tail answer
//     that did not exceed L is drawn from its Laplace law conditioned on
//     ≤ L, and the selection runs over all n values.
//
// Each noisy value is therefore drawn from its exact marginal given which
// answers exceed L, independently, so the released indices and gaps have
// Algorithm 1's distribution and Theorem 2's privacy proof applies unchanged.
// The cost is two comparison passes plus |head| + O(1 + n·p̄) draws; the
// fallback in step 4 runs with probability at most (k+1)·½e^{−8}.

// lazyMinQueries is the vector length from which RunScratch samples Laplace
// noise lazily. Below it the lazy path saves under ~30 µs a run
// (BenchmarkMechanismTopKWithGapRun), while the dense path keeps short
// vectors' fixed-seed outputs, their batch prenoise windows, and a running
// time that does not depend on where the answers lie.
const lazyMinQueries = 1024

// lazyLevelScales and lazyHeadScales place the level L and the head cutoff
// H in noise scales: L = c₍ₖ₊₁₎ − 8b and H = L − 10b.
const (
	lazyLevelScales = 8
	lazyHeadScales  = 10
)

// SamplesLazily reports whether RunScratch over n answers draws its noise
// lazily. A lazy run consumes a data-dependent number of draws, so it cannot
// be fed a pre-drawn unit-noise window (RunPrenoised).
func (m *TopKWithGap) SamplesLazily(n int) bool {
	return m.Noise == NoiseLaplace && n >= lazyMinQueries
}

// runLazy is RunScratch's lazy path (see the file comment). It returns nil,
// having drawn nothing, when an answer or the level is not finite enough to
// order, or when the head would hold nearly every answer: the caller then
// takes the dense path, whose law is the same.
func (m *TopKWithGap) runLazy(src rng.Source, answers []float64, scr *TopKScratch, scale float64) *TopKResult {
	level := kthLargest(answers, m.K+1, scr.floats(m.K+1)) - lazyLevelScales*scale
	head := level - lazyHeadScales*scale
	if !finite(level) || !finite(head) || !hasTail(answers, head) {
		return nil
	}
	return m.lazySample(src, answers, level, head, scr, scale)
}

// hasTail reports whether any of 16 evenly spaced answers lies below the
// head cutoff. When none does, the head likely holds most answers (the noise
// scale dwarfs their spread), and drawing it lazily would cost more than the
// dense path's one fill.
func hasTail(answers []float64, head float64) bool {
	step := max(len(answers)/16, 1)
	for i := 0; i < len(answers); i += step {
		if answers[i] < head {
			return true
		}
	}
	return false
}

// finite reports whether x is neither infinite nor NaN.
func finite(x float64) bool { return x-x == 0 }

// lazySample draws the top-(k+1) of Algorithm 1 given a level and a head
// cutoff head ≤ level, both finite. The law of the result does not depend on
// where they sit; they only set the cost. It returns nil, having drawn
// nothing, when an answer is NaN.
func (m *TopKWithGap) lazySample(src rng.Source, answers []float64, level, head float64, scr *TopKScratch, scale float64) *TopKResult {
	n := len(answers)
	pos := scr.pos[:0]
	for i, a := range answers {
		if !(a < head) {
			if a != a {
				return nil
			}
			pos = append(pos, i)
		}
	}
	vals := rng.LaplaceVec(src, scale, len(pos), scr.headVals(len(pos)))
	for j, i := range pos {
		vals[j] += answers[i]
	}

	// Thin the tail: visit a Bernoulli(p̄) subset of positions by geometric
	// skips, keep a visited tail position with probability pᵢ/p̄ =
	// e^{(cᵢ−head)/b}, and give each kept one its conditional value.
	pbar := 0.5 * math.Exp(-(level-head)/scale)
	logq := math.Log1p(-pbar)
	for i := -1; ; {
		// skip counts the positions passed over before the next visit. It is
		// compared as a float before the conversion, which Go leaves
		// implementation-defined for values out of int range.
		skip := math.Log(rng.Float64(src)) / logq
		if !(skip < float64(n-1-i)) {
			break
		}
		i += int(skip) + 1
		a := answers[i]
		if a >= head {
			continue // drawn in full above
		}
		if rng.Float64(src) < math.Exp((a-head)/scale) {
			pos = append(pos, i)
			vals = append(vals, level+rng.Exponential(src, scale))
		}
	}
	scr.pos, scr.vals = pos, vals

	above := 0
	for _, v := range vals {
		if v > level {
			above++
		}
	}
	if above > m.K {
		res := m.finish(vals, scr, scale)
		for i := range res.Selections {
			res.Selections[i].Index = pos[res.Selections[i].Index]
		}
		return res
	}

	// Fallback: fewer than k+1 values exceed the level, so the release needs
	// every noisy value. Each tail answer that did not exceed the level is
	// redrawn until it falls at or below it (its law conditioned on ≤ L);
	// the head and the kept tail positions then take their drawn values.
	noisy := scr.floats(n)
	rng.LaplaceVec(src, scale, n, noisy)
	for i, a := range answers {
		noisy[i] += a
		for a < head && noisy[i] > level {
			noisy[i] = a + rng.Laplace(src, scale)
		}
	}
	for j, i := range pos {
		noisy[i] = vals[j]
	}
	return m.finish(noisy, scr, scale)
}

// kthLargest returns the k-th largest of xs (1 ≤ k ≤ len(xs)) in one pass,
// keeping the k largest values seen so far in the min-heap h (len(h) == k):
// most elements fail the one comparison against its root.
func kthLargest(xs []float64, k int, h []float64) float64 {
	copy(h, xs[:k])
	for i := k/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	for _, x := range xs[k:] {
		if x > h[0] {
			h[0] = x
			siftDown(h, 0)
		}
	}
	return h[0]
}

// siftDown restores the min-heap order of h below position i.
func siftDown(h []float64, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1] < h[c] {
			c++
		}
		if !(h[c] < h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
