package core

import (
	"math"
	"sort"
	"testing"

	"github.com/freegap/freegap/internal/rng"
)

// The lazy sampler must draw exactly the dense sampler's law of the released
// indices and gaps. These two-sample tests run both samplers many times with
// fixed seeds and compare the selected index tuples by χ² and the last gap
// (between the k-th and (k+1)-th noisy answers) by Kolmogorov–Smirnov, each
// at p = 0.001. The dense reference is RunPrenoised over one unit-scale
// Laplace draw per answer, which is Algorithm 1 as written.

const lazyTestAlpha = 0.001

// lazyDraws collects the released index tuples and last gaps of many runs.
type lazyDraws struct {
	tuples map[[3]int]int
	gaps   []float64
}

func (d *lazyDraws) add(res *TopKResult) {
	if d.tuples == nil {
		d.tuples = map[[3]int]int{}
	}
	var key [3]int
	for i, s := range res.Selections {
		key[i] = s.Index
	}
	d.tuples[key]++
	d.gaps = append(d.gaps, res.Selections[len(res.Selections)-1].Gap)
}

func denseDraws(t *testing.T, m *TopKWithGap, answers []float64, trials int, seed uint64) *lazyDraws {
	t.Helper()
	src := rng.NewXoshiro(seed)
	unit := make([]float64, len(answers))
	var scr TopKScratch
	d := &lazyDraws{}
	for i := 0; i < trials; i++ {
		res, err := m.RunPrenoised(rng.LaplaceVec(src, 1, len(answers), unit), answers, &scr)
		if err != nil {
			t.Fatal(err)
		}
		d.add(res)
	}
	return d
}

// compareLaws fails the test when either statistic rejects equality at
// lazyTestAlpha.
func compareLaws(t *testing.T, lazy, dense *lazyDraws) {
	t.Helper()
	stat, df, p := chiSquareTwoSample(lazy.tuples, dense.tuples)
	t.Logf("index tuples: χ² = %.1f at df = %d, p = %.3g", stat, df, p)
	if p < lazyTestAlpha {
		t.Errorf("index tuples differ: χ² = %.1f at df = %d, p = %.3g < %v", stat, df, p, lazyTestAlpha)
	}
	d, pks := ksTwoSample(lazy.gaps, dense.gaps)
	t.Logf("last gap: KS D = %.5f, p = %.3g", d, pks)
	if pks < lazyTestAlpha {
		t.Errorf("last-gap laws differ: KS D = %.5f, p = %.3g < %v", d, pks, lazyTestAlpha)
	}
}

// TestLazyTopKMatchesDenseAtForcedLevel places the level and head cutoff by
// hand, close to the answers, so that tail positions are kept and the
// truncated fallback runs in a large share of trials.
func TestLazyTopKMatchesDenseAtForcedLevel(t *testing.T) {
	answers := []float64{6, 5, 4.5, 4, 3.5, 3, 2, 1}
	m := &TopKWithGap{K: 3, Epsilon: 3, Monotonic: true} // b = 1
	const (
		level, head = 4.0, 3.5
		trials      = 300_000
	)
	scale := m.NoiseScale()
	headCount := 0
	for _, a := range answers {
		if a >= head {
			headCount++
		}
	}

	src := rng.NewXoshiro(20260)
	var scr TopKScratch
	lazy := &lazyDraws{}
	kept, fallbacks := 0, 0
	for i := 0; i < trials; i++ {
		res := m.lazySample(src, answers, level, head, &scr, scale)
		if res == nil {
			t.Fatal("lazySample declined finite answers")
		}
		lazy.add(res)
		if len(scr.pos) > headCount {
			kept++
		}
		above := 0
		for _, v := range scr.vals {
			if v > level {
				above++
			}
		}
		if above <= m.K {
			fallbacks++
		}
	}
	keptShare, fallbackShare := float64(kept)/trials, float64(fallbacks)/trials
	t.Logf("trials with a kept tail position: %.3f; with the fallback: %.3f", keptShare, fallbackShare)
	if keptShare < 0.2 || fallbackShare < 0.2 {
		t.Fatalf("configuration no longer exercises both branches (kept %.3f, fallback %.3f)", keptShare, fallbackShare)
	}
	compareLaws(t, lazy, denseDraws(t, m, answers, trials, 20261))
}

// TestLazyTopKMatchesDenseAtProductionConstants runs RunScratch's own lazy
// path (level and head from the (k+1)-th largest answer) over 2,048 answers,
// half of them just below the head cutoff so that tail positions are kept.
func TestLazyTopKMatchesDenseAtProductionConstants(t *testing.T) {
	const n, trials = 2048, 40_000
	m := &TopKWithGap{K: 3, Epsilon: 3, Monotonic: true} // b = 1
	answers := make([]float64, n)
	copy(answers, []float64{100, 99.5, 99, 98.5, 98, 97})
	src := rng.NewXoshiro(5)
	head := 98.5 - (lazyLevelScales+lazyHeadScales)*m.NoiseScale()
	for i := 6; i < n; i++ {
		if i%2 == 0 {
			answers[i] = head - 0.1
		} else {
			answers[i] = rng.Float64(src) * (head - 1)
		}
	}
	if !m.SamplesLazily(n) {
		t.Fatalf("n = %d is below the lazy cutoff", n)
	}

	var scr TopKScratch
	lazy := &lazyDraws{}
	kept := 0
	for i := 0; i < trials; i++ {
		res, err := m.RunScratch(src, answers, &scr)
		if err != nil {
			t.Fatal(err)
		}
		lazy.add(res)
		if len(scr.pos) > 6 {
			kept++
		}
	}
	t.Logf("trials with a kept tail position: %d of %d", kept, trials)
	if kept == 0 {
		t.Fatal("no tail position was kept")
	}
	compareLaws(t, lazy, denseDraws(t, m, answers, trials, 6))
}

// chiSquareTwoSample returns the two-sample χ² statistic for equal-sized
// samples of categorical outcomes, Σ (a−b)²/(a+b), its degrees of freedom
// and its upper-tail p-value (Wilson–Hilferty). Cells holding fewer than 10
// draws in both samples together are pooled into one.
func chiSquareTwoSample(a, b map[[3]int]int) (stat float64, df int, p float64) {
	keys := map[[3]int]bool{}
	for k := range a {
		keys[k] = true
	}
	for k := range b {
		keys[k] = true
	}
	cells := 0
	poolA, poolB := 0, 0
	for k := range keys {
		x, y := a[k], b[k]
		if x+y < 10 {
			poolA, poolB = poolA+x, poolB+y
			continue
		}
		stat += float64((x-y)*(x-y)) / float64(x+y)
		cells++
	}
	if poolA+poolB >= 10 {
		stat += float64((poolA-poolB)*(poolA-poolB)) / float64(poolA+poolB)
		cells++
	}
	df = cells - 1
	if df < 1 {
		return stat, df, 1
	}
	v := 2 / (9 * float64(df))
	z := (math.Cbrt(stat/float64(df)) - (1 - v)) / math.Sqrt(v)
	return stat, df, 0.5 * math.Erfc(z/math.Sqrt2)
}

// ksTwoSample returns the two-sample Kolmogorov–Smirnov statistic D and its
// asymptotic p-value. It sorts x and y in place.
func ksTwoSample(x, y []float64) (d, p float64) {
	sort.Float64s(x)
	sort.Float64s(y)
	nx, ny := float64(len(x)), float64(len(y))
	for i, j := 0, 0; i < len(x) && j < len(y); {
		v := math.Min(x[i], y[j])
		for i < len(x) && x[i] <= v {
			i++
		}
		for j < len(y) && y[j] <= v {
			j++
		}
		d = math.Max(d, math.Abs(float64(i)/nx-float64(j)/ny))
	}
	ne := math.Sqrt(nx * ny / (nx + ny))
	lambda := (ne + 0.12 + 0.11/ne) * d
	if lambda < 0.3 {
		return d, 1 // the series below does not converge here; Q(0.3) > 0.9999
	}
	for j := 1; j <= 100; j++ {
		term := 2 * math.Exp(-2*float64(j*j)*lambda*lambda)
		if j%2 == 0 {
			term = -term
		}
		p += term
	}
	return d, math.Max(0, math.Min(1, p))
}
