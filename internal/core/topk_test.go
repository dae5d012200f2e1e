package core

import (
	"errors"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"github.com/freegap/freegap/internal/rng"
)

func TestNewTopKWithGapValidation(t *testing.T) {
	if _, err := NewTopKWithGap(0, 1, true); !errors.Is(err, ErrInvalidK) {
		t.Fatalf("k=0: got %v", err)
	}
	if _, err := NewTopKWithGap(3, 0, true); !errors.Is(err, ErrInvalidEpsilon) {
		t.Fatalf("eps=0: got %v", err)
	}
	if _, err := NewTopKWithGap(3, 1, true); err != nil {
		t.Fatal(err)
	}
}

func TestTopKNoiseScale(t *testing.T) {
	general, _ := NewTopKWithGap(5, 0.5, false)
	if got := general.NoiseScale(); got != 20 {
		t.Fatalf("general scale %v, want 2k/eps = 20", got)
	}
	mono, _ := NewTopKWithGap(5, 0.5, true)
	if got := mono.NoiseScale(); got != 10 {
		t.Fatalf("monotonic scale %v, want k/eps = 10", got)
	}
	if general.GapVariance() != 2*rng.LaplaceVariance(20) {
		t.Fatal("gap variance must be twice the per-query variance")
	}
	if general.PerQueryNoiseVariance() != rng.LaplaceVariance(20) {
		t.Fatal("per-query variance mismatch")
	}
}

func TestTopKRunErrors(t *testing.T) {
	src := rng.NewXoshiro(1)
	m, _ := NewTopKWithGap(3, 1, true)
	if _, err := m.Run(src, nil); !errors.Is(err, ErrNoQueries) {
		t.Fatalf("empty input: %v", err)
	}
	// Need k+1 queries.
	if _, err := m.Run(src, []float64{1, 2, 3}); !errors.Is(err, ErrInvalidK) {
		t.Fatalf("k = n: %v", err)
	}
	bad := &TopKWithGap{K: 2, Epsilon: -1}
	if _, err := bad.Run(src, []float64{1, 2, 3}); !errors.Is(err, ErrInvalidEpsilon) {
		t.Fatalf("bad epsilon: %v", err)
	}
}

func TestTopKRunBasicShape(t *testing.T) {
	src := rng.NewXoshiro(42)
	answers := []float64{100, 5, 80, 3, 60, 1, 40, 2}
	m, _ := NewTopKWithGap(3, 2, true)
	res, err := m.Run(src, answers)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selections) != 3 {
		t.Fatalf("selections %d, want 3", len(res.Selections))
	}
	if res.Epsilon != 2 || !res.Monotonic {
		t.Fatalf("metadata not propagated: %+v", res)
	}
	seen := map[int]bool{}
	for _, s := range res.Selections {
		if s.Index < 0 || s.Index >= len(answers) {
			t.Fatalf("index %d out of range", s.Index)
		}
		if seen[s.Index] {
			t.Fatalf("index %d selected twice", s.Index)
		}
		seen[s.Index] = true
		if s.Gap <= 0 {
			t.Fatalf("gap %v must be strictly positive", s.Gap)
		}
	}
	if got := len(res.Indices()); got != 3 {
		t.Fatalf("Indices() length %d", got)
	}
	if got := len(res.Gaps()); got != 3 {
		t.Fatalf("Gaps() length %d", got)
	}
}

func TestTopKSelectsTrueTopAtHighEpsilon(t *testing.T) {
	src := rng.NewXoshiro(7)
	answers := []float64{1000, 10, 900, 20, 800, 30, 700, 40}
	m, _ := NewTopKWithGap(3, 100, true) // tiny noise
	res, err := m.Run(src, answers)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 2, 4}
	for i, s := range res.Selections {
		if s.Index != want[i] {
			t.Fatalf("selection %d = %d, want %d (selections %+v)", i, s.Index, want[i], res.Selections)
		}
	}
	// Gaps should be near the true gaps of 100 each.
	for i, s := range res.Selections {
		if math.Abs(s.Gap-100) > 10 {
			t.Fatalf("gap %d = %v, want ≈ 100", i, s.Gap)
		}
	}
}

func TestTopKGapsUnbiased(t *testing.T) {
	// Averaged over many runs, the released gap estimates the true gap between
	// the consistently-ranked queries.
	answers := []float64{500, 400, 320, 10, 5}
	m, _ := NewTopKWithGap(2, 5, true)
	src := rng.NewXoshiro(19)
	const trials = 4000
	var sumG1, sumG2 float64
	used := 0
	for i := 0; i < trials; i++ {
		res, err := m.Run(src, answers)
		if err != nil {
			t.Fatal(err)
		}
		// Only average trials where the ranking matched the truth; at eps=5
		// that is almost all of them.
		if res.Selections[0].Index == 0 && res.Selections[1].Index == 1 {
			sumG1 += res.Selections[0].Gap
			sumG2 += res.Selections[1].Gap
			used++
		}
	}
	if used < trials*9/10 {
		t.Fatalf("ranking flipped too often: %d/%d", used, trials)
	}
	g1, g2 := sumG1/float64(used), sumG2/float64(used)
	if math.Abs(g1-100) > 5 {
		t.Fatalf("mean first gap %v, want ≈ 100", g1)
	}
	if math.Abs(g2-80) > 5 {
		t.Fatalf("mean second gap %v, want ≈ 80", g2)
	}
}

func TestTopKGapVarianceEmpirical(t *testing.T) {
	// The empirical variance of the first gap should match 2·(2k/eps)²·2 =
	// GapVariance() when the selection is stable.
	answers := []float64{10000, 9000, 100}
	m, _ := NewTopKWithGap(1, 1, false)
	src := rng.NewXoshiro(23)
	const trials = 20000
	gaps := make([]float64, 0, trials)
	for i := 0; i < trials; i++ {
		res, err := m.Run(src, answers)
		if err != nil {
			t.Fatal(err)
		}
		if res.Selections[0].Index == 0 {
			gaps = append(gaps, res.Selections[0].Gap)
		}
	}
	var sum, sumSq float64
	for _, g := range gaps {
		sum += g
		sumSq += g * g
	}
	n := float64(len(gaps))
	mean := sum / n
	variance := sumSq/n - mean*mean
	want := m.GapVariance()
	if math.Abs(variance-want) > 0.15*want {
		t.Fatalf("empirical gap variance %v, want ≈ %v", variance, want)
	}
}

func TestTopKPairwiseGap(t *testing.T) {
	res := &TopKResult{Selections: []Selection{{0, 5}, {1, 3}, {2, 2}}}
	got, err := res.PairwiseGap(0, 3)
	if err != nil || got != 10 {
		t.Fatalf("PairwiseGap(0,3) = %v, %v", got, err)
	}
	got, err = res.PairwiseGap(1, 2)
	if err != nil || got != 3 {
		t.Fatalf("PairwiseGap(1,2) = %v, %v", got, err)
	}
	for _, pair := range [][2]int{{-1, 1}, {2, 2}, {0, 4}} {
		if _, err := res.PairwiseGap(pair[0], pair[1]); err == nil {
			t.Errorf("expected error for pair %v", pair)
		}
	}
}

func TestMaxWithGap(t *testing.T) {
	src := rng.NewXoshiro(3)
	answers := []float64{10, 500, 30}
	res, err := MaxWithGap(src, answers, 50, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Index != 1 {
		t.Fatalf("index %d, want 1", res.Index)
	}
	if res.Gap <= 0 {
		t.Fatalf("gap %v must be positive", res.Gap)
	}
	if res.Epsilon != 50 {
		t.Fatalf("epsilon %v", res.Epsilon)
	}
	if _, err := MaxWithGap(src, answers, -1, true); err == nil {
		t.Fatal("negative epsilon accepted")
	}
}

func TestTopKPropertyInvariants(t *testing.T) {
	// For random inputs: gaps positive, indices distinct and within range,
	// selections sorted by noisy value (implied by construction via gaps>0).
	src := rng.NewXoshiro(77)
	f := func(seed uint64) bool {
		local := rng.NewXoshiro(seed)
		n := 3 + rng.Intn(local, 30)
		k := 1 + rng.Intn(local, n-2)
		answers := make([]float64, n)
		for i := range answers {
			answers[i] = float64(rng.Intn(local, 1000))
		}
		eps := 0.1 + rng.Float64(local)*3
		m, err := NewTopKWithGap(k, eps, rng.Float64(local) < 0.5)
		if err != nil {
			return false
		}
		res, err := m.Run(src, answers)
		if err != nil {
			return false
		}
		if len(res.Selections) != k {
			return false
		}
		seen := map[int]bool{}
		for _, s := range res.Selections {
			if s.Gap <= 0 || s.Index < 0 || s.Index >= n || seen[s.Index] {
				return false
			}
			seen[s.Index] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTopKAlternativeNoiseKinds(t *testing.T) {
	answers := []float64{1000, 900, 800, 700, 10}
	for _, kind := range []NoiseKind{NoiseLaplace, NoiseDiscreteLaplace, NoiseStaircase} {
		m := &TopKWithGap{K: 2, Epsilon: 5, Monotonic: true, Noise: kind, DiscreteBase: 1.0 / (1 << 20)}
		src := rng.NewXoshiro(9)
		res, err := m.Run(src, answers)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		for _, s := range res.Selections {
			if s.Gap <= 0 {
				t.Fatalf("%v: non-positive gap %v", kind, s.Gap)
			}
		}
		if kind.String() == "" {
			t.Fatal("empty NoiseKind string")
		}
	}
	if NoiseKind(99).String() == "" {
		t.Fatal("unknown kind must still stringify")
	}
}

// TestTopKRunPrenoisedBitIdentity pins the batch-noise contract: feeding
// RunPrenoised the unit-scale draws the scalar path would have made produces
// bit-identical selections, because the sampler's last operation is the
// multiply by scale.
func TestTopKRunPrenoisedBitIdentity(t *testing.T) {
	answers := []float64{812, 641, 633, 10, 998, 402, 77, 5, 300, 299}
	for _, k := range []int{1, 2, 5} {
		for _, mono := range []bool{false, true} {
			m, _ := NewTopKWithGap(k, 0.8, mono)
			var seed uint64 = 7*uint64(k) + 1
			want, err := m.Run(rng.NewXoshiro(seed), answers)
			if err != nil {
				t.Fatal(err)
			}
			unit := rng.LaplaceVec(rng.NewXoshiro(seed), 1, len(answers), nil)
			got, err := m.RunPrenoised(unit, answers, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Selections) != len(want.Selections) {
				t.Fatalf("k=%d mono=%v: %d selections, want %d", k, mono, len(got.Selections), len(want.Selections))
			}
			for i := range want.Selections {
				if got.Selections[i] != want.Selections[i] {
					t.Fatalf("k=%d mono=%v sel %d: got %+v, want %+v (must be bit-identical)", k, mono, i, got.Selections[i], want.Selections[i])
				}
			}
		}
	}
}

// TestTopKRunPrenoisedErrors pins the fences: wrong noise length and
// non-Laplace noise kinds must be rejected.
func TestTopKRunPrenoisedErrors(t *testing.T) {
	answers := []float64{3, 2, 1}
	m, _ := NewTopKWithGap(1, 1, true)
	if _, err := m.RunPrenoised([]float64{0}, answers, nil); err == nil {
		t.Fatal("short unit-noise vector must be rejected")
	}
	disc := &TopKWithGap{K: 1, Epsilon: 1, Noise: NoiseDiscreteLaplace}
	if _, err := disc.RunPrenoised([]float64{0, 0, 0}, answers, nil); err == nil {
		t.Fatal("non-Laplace noise must be rejected")
	}
	if _, err := m.RunPrenoised(nil, nil, nil); !errors.Is(err, ErrNoQueries) {
		t.Fatal("empty answers must be rejected")
	}
}

// TestTopKPartialSelectionAgreesWithSort runs the same draws through both
// ranking paths — the insertion-based partial selection (small k, long
// vector) and the full sort (forced via a scratch-independent reference) —
// and demands identical selections.
func TestTopKPartialSelectionAgreesWithSort(t *testing.T) {
	src := rng.NewXoshiro(31)
	n := 512
	answers := make([]float64, n)
	for i := range answers {
		answers[i] = rng.Float64(src) * 1000
	}
	for _, k := range []int{1, 3, 16, 63} {
		m, _ := NewTopKWithGap(k, 2, true)
		noisy := make([]float64, n)
		rng.LaplaceVec(rng.NewXoshiro(uint64(k)), m.NoiseScale(), n, noisy)
		for i := range noisy {
			noisy[i] += answers[i]
		}
		// Partial path: n >= 4*(k+1) holds for every k here.
		got := m.finish(append([]float64(nil), noisy...), &TopKScratch{}, m.NoiseScale())
		// Reference: full descending sort of (value, index).
		type vi struct {
			v float64
			i int
		}
		ref := make([]vi, n)
		for i, v := range noisy {
			ref[i] = vi{v, i}
		}
		sort.Slice(ref, func(a, b int) bool { return ref[a].v > ref[b].v })
		for i := 0; i < k; i++ {
			if got.Selections[i].Index != ref[i].i {
				t.Fatalf("k=%d rank %d: partial picked %d, sort picked %d", k, i, got.Selections[i].Index, ref[i].i)
			}
			wantGap := ref[i].v - ref[i+1].v
			if got.Selections[i].Gap != wantGap {
				t.Fatalf("k=%d rank %d: gap %v, want %v", k, i, got.Selections[i].Gap, wantGap)
			}
		}
	}
}

// TestTopKHeapSelectionAgreesWithSort drives the bounded-heap path — every
// k+1 above partialTopCutoff, and short vectors (n < 4(k+1)) at any k — on
// random vectors, and demands the full sort's top k+1: the same indices in
// the same order, and gaps bit-identical to the sorted values' differences.
func TestTopKHeapSelectionAgreesWithSort(t *testing.T) {
	src := rng.NewXoshiro(41)
	const maxN = 1657
	for _, k := range []int{64, 65, 100, -1} {
		for _, n := range []int{2, 66, 67, 101, 102, 130, 259, 260, 404, 405, 1000, maxN} {
			k := k
			if k < 0 {
				k = n - 1
			}
			if n < k+1 {
				continue
			}
			m, _ := NewTopKWithGap(k, 1, true)
			noisy := make([]float64, n)
			for i := range noisy {
				noisy[i] = rng.Float64(src) * 1000
			}
			got := m.finish(append([]float64(nil), noisy...), &TopKScratch{}, m.NoiseScale())
			order := make([]int, n)
			for i := range order {
				order[i] = i
			}
			sort.Slice(order, func(a, b int) bool { return noisy[order[a]] > noisy[order[b]] })
			for i := 0; i < k; i++ {
				if got.Selections[i].Index != order[i] {
					t.Fatalf("k=%d n=%d rank %d: heap picked %d, sort picked %d", k, n, i, got.Selections[i].Index, order[i])
				}
				if want := noisy[order[i]] - noisy[order[i+1]]; got.Selections[i].Gap != want {
					t.Fatalf("k=%d n=%d rank %d: gap %v, want %v", k, n, i, got.Selections[i].Gap, want)
				}
			}
		}
	}
}
