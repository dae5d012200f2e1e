package core_test

import (
	"math"
	"testing"

	"github.com/freegap/freegap/internal/core"
	"github.com/freegap/freegap/internal/engine"
	"github.com/freegap/freegap/internal/rng"
)

// FuzzTopKLazy runs Noisy-Top-K-with-Gap over vectors long enough to sample
// lazily, across answer shapes, k from 1 to n−1, ε over the serving range,
// and NaN or ±Inf answers: once through the library API, and once through the
// lazy sampler itself even where RunScratch would leave a vector whose head
// holds every answer to the dense path. Every run must return k selections
// with distinct in-range indices, and, for finite answers, finite and
// strictly positive gaps. A panic here would take dpserver down mid-run.
func FuzzTopKLazy(f *testing.F) {
	type seed struct {
		shape, special uint8
		extra, k, spot uint16
		eps            float64
		src            uint64
	}
	for _, s := range []seed{
		{shape: 0, k: 10, eps: 1, src: 1},                       // all answers equal
		{shape: 1, k: 10, eps: 1, src: 2},                       // two levels
		{shape: 2, k: 3, eps: 0.5, src: 3},                      // one dominant answer
		{shape: 3, k: 10, eps: 1, src: 4},                       // random counts
		{shape: 4, extra: 7, k: 1029, eps: 2, src: 5},           // k = n − 1
		{shape: 5, k: 10, eps: engine.MaxEpsilon, src: 6},       // b tiny
		{shape: 3, k: 10, eps: engine.MinEpsilon, src: 7},       // head is every answer
		{shape: 3, k: 5, eps: 1, src: 8, special: 1, spot: 17},  // NaN
		{shape: 1, k: 5, eps: 1, src: 9, special: 2, spot: 500}, // +Inf
		{shape: 2, k: 5, eps: 1, src: 10, special: 3, spot: 0},  // −Inf
		{shape: 0, k: 1, eps: engine.MaxEpsilon, src: 11, extra: 1023},
	} {
		f.Add(s.shape, s.extra, s.k, s.eps, s.src, s.special, s.spot)
	}
	f.Fuzz(func(t *testing.T, shape uint8, extra, k uint16, eps float64, seed uint64, special uint8, spot uint16) {
		n := core.LazyMinQueries + int(extra%1024)
		r := rng.NewXoshiro(seed)
		answers := make([]float64, n)
		for i := range answers {
			switch shape % 6 {
			case 0:
				answers[i] = 100
			case 1:
				answers[i] = float64(50 * (1 + rng.Intn(r, 2)))
			case 2:
				answers[i] = 10
			case 3:
				answers[i] = float64(rng.Intn(r, 1000))
			case 4:
				answers[i] = float64(i)
			case 5:
				answers[i] = float64(n - i)
			}
		}
		if shape%6 == 2 {
			answers[rng.Intn(r, n)] = 1e6
		}
		switch special % 4 {
		case 1:
			answers[int(spot)%n] = math.NaN()
		case 2:
			answers[int(spot)%n] = math.Inf(1)
		case 3:
			answers[int(spot)%n] = math.Inf(-1)
		}
		if math.IsNaN(eps) {
			eps = 1
		}
		m := core.TopKWithGap{
			K:         1 + int(k)%(n-1),
			Epsilon:   math.Max(engine.MinEpsilon, math.Min(engine.MaxEpsilon, math.Abs(eps))),
			Monotonic: shape&8 == 0,
		}
		if !m.SamplesLazily(n) {
			t.Fatalf("n = %d does not sample lazily", n)
		}
		res, err := m.Run(r, answers)
		if err != nil {
			t.Fatalf("Run(k=%d, ε=%g, n=%d): %v", m.K, m.Epsilon, n, err)
		}
		checkRelease(t, "Run", res, &m, n, special%4 == 0)
		if lazy := m.LazySample(r, answers); lazy != nil {
			checkRelease(t, "LazySample", lazy, &m, n, special%4 == 0)
		} else if special%4 == 0 {
			t.Fatalf("LazySample declined finite answers (k=%d, ε=%g)", m.K, m.Epsilon)
		}
	})
}

// checkRelease fails unless res holds k selections with distinct in-range
// indices and, when the answers were finite, finite positive gaps.
func checkRelease(t *testing.T, path string, res *core.TopKResult, m *core.TopKWithGap, n int, finiteAnswers bool) {
	t.Helper()
	if len(res.Selections) != m.K {
		t.Fatalf("%s: %d selections, want k = %d", path, len(res.Selections), m.K)
	}
	seen := make(map[int]bool, m.K)
	for i, s := range res.Selections {
		if s.Index < 0 || s.Index >= n || seen[s.Index] {
			t.Fatalf("%s: selection %d: index %d out of range or repeated", path, i, s.Index)
		}
		seen[s.Index] = true
		if finiteAnswers && !(s.Gap > 0 && !math.IsInf(s.Gap, 0)) {
			t.Fatalf("%s: selection %d (index %d): gap %v is not finite and positive (k=%d, ε=%g)", path, i, s.Index, s.Gap, m.K, m.Epsilon)
		}
	}
}
