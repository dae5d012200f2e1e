// Benchmark harness: one benchmark per table/figure of the paper (see the
// per-experiment index in DESIGN.md) plus the ablation benches for the design
// choices called out there and micro-benchmarks of the core mechanisms.
//
// Figure benchmarks run the experiment harness at a reduced scale and report
// the headline quantity of the figure through b.ReportMetric, so
// `go test -bench=. -benchmem` both times the harness and prints the
// reproduced numbers. cmd/dpbench regenerates the full tables.
package freegap_test

import (
	"fmt"
	"math"
	"testing"

	freegap "github.com/freegap/freegap"
	"github.com/freegap/freegap/internal/core"
	"github.com/freegap/freegap/internal/dataset"
	"github.com/freegap/freegap/internal/experiment"
	"github.com/freegap/freegap/internal/postprocess"
	"github.com/freegap/freegap/internal/rng"
)

// benchConfig keeps the figure benchmarks fast while preserving the paper's
// qualitative shapes (see DESIGN.md §5 on scale compensation).
func benchConfig() experiment.Config {
	return experiment.Config{
		Seed:            1,
		Trials:          40,
		Scale:           200,
		Epsilon:         0.7,
		Ks:              []int{2, 10, 25},
		Epsilons:        []float64{0.3, 0.7, 1.1},
		FixedK:          10,
		CompensateScale: true,
	}
}

// reportLastPoints publishes the final point of each series as a custom
// benchmark metric, e.g. "fig1a/SparseVectorwithMeasures_k=25".
func reportLastPoints(b *testing.B, fig experiment.Figure) {
	b.Helper()
	for _, s := range fig.Series {
		if len(s.Points) == 0 {
			continue
		}
		last := s.Points[len(s.Points)-1]
		name := fmt.Sprintf("%s_at_%g", sanitizeMetric(s.Name), last.X)
		b.ReportMetric(last.Y, name)
	}
}

func sanitizeMetric(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		}
	}
	return string(out)
}

// --- E0: dataset statistics table (Section 7.1) ---

func BenchmarkDatasetStatsTable(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := cfg.DatasetStatsTable()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(float64(r.Records), sanitizeMetric(r.Name)+"_records")
			}
		}
	}
}

// --- E1–E4: Figures 1a, 1b, 2a, 2b ---

func BenchmarkFig1aSVTGapMSEImprovementByK(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		fig, err := cfg.Fig1a()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportLastPoints(b, fig)
		}
	}
}

func BenchmarkFig1bTopKGapMSEImprovementByK(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		fig, err := cfg.Fig1b()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportLastPoints(b, fig)
		}
	}
}

func BenchmarkFig2aSVTGapMSEImprovementByEps(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		fig, err := cfg.Fig2a()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportLastPoints(b, fig)
		}
	}
}

func BenchmarkFig2bTopKGapMSEImprovementByEps(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		fig, err := cfg.Fig2b()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportLastPoints(b, fig)
		}
	}
}

// --- E5–E7: Figures 3a–3f and 4 ---

func BenchmarkFig3AnswerCounts(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		figs, err := cfg.Fig3Counts()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, f := range figs {
				reportLastPoints(b, f)
			}
		}
	}
}

func BenchmarkFig3PrecisionFMeasure(b *testing.B) {
	cfg := benchConfig()
	cfg.Ks = []int{2, 10} // quality sweeps are the slowest; two points suffice for the bench
	for i := 0; i < b.N; i++ {
		figs, err := cfg.Fig3Quality()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, f := range figs {
				reportLastPoints(b, f)
			}
		}
	}
}

func BenchmarkFig4RemainingBudget(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		fig, err := cfg.Fig4()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportLastPoints(b, fig)
		}
	}
}

// --- E8–E12: supporting studies ---

func BenchmarkCorollary1BLUEErrorRatio(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		fig, err := cfg.Corollary1()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportLastPoints(b, fig)
		}
	}
}

func BenchmarkSVTGapCombineErrorRatio(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		fig, err := cfg.SVTCombineRatio()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportLastPoints(b, fig)
		}
	}
}

func BenchmarkTieProbabilityBound(b *testing.B) {
	cfg := benchConfig()
	cfg.Trials = 400
	for i := 0; i < b.N; i++ {
		fig, err := cfg.TieProbability()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportLastPoints(b, fig)
		}
	}
}

func BenchmarkLemma5Coverage(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		fig, err := cfg.Lemma5Coverage()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportLastPoints(b, fig)
		}
	}
}

func BenchmarkPrivacyAudit(b *testing.B) {
	cfg := benchConfig()
	cfg.Trials = 300 // the audit enforces its own 40k-trial floor internally
	for i := 0; i < b.N; i++ {
		rows, err := cfg.PrivacyAudit()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(r.EpsilonHat, sanitizeMetric(r.Mechanism)+"_epsHat")
			}
		}
	}
}

func BenchmarkAlignmentVerification(b *testing.B) {
	cfg := benchConfig()
	cfg.Trials = 200
	for i := 0; i < b.N; i++ {
		rows, err := cfg.AlignmentVerification()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(r.MaxCost, sanitizeMetric(r.Mechanism)+"_maxCost")
			}
		}
	}
}

// --- Ablation benches (DESIGN.md §6) ---

// BenchmarkAblationAdaptiveSigma sweeps the top-branch margin σ (in standard
// deviations of the top-branch noise). σ = ∞ disables the top branch and
// recovers plain Sparse-Vector-with-Gap; the paper's choice is 2.
func BenchmarkAblationAdaptiveSigma(b *testing.B) {
	counts := dataset.BMSPOSConfig().ScaledDown(200).Generate(1).ItemCounts()
	const k, eps = 10, 140.0 // eps precompensated for the 200x scale reduction
	for _, mult := range []float64{1, 2, 3, math.Inf(1)} {
		name := fmt.Sprintf("sigma=%gx", mult)
		if math.IsInf(mult, 1) {
			name = "sigma=inf(plainSVT)"
		}
		b.Run(name, func(b *testing.B) {
			src := rng.NewXoshiro(7)
			total := 0.0
			for i := 0; i < b.N; i++ {
				threshold := dataset.RandomThreshold(src, counts, k)
				m := &core.AdaptiveSVTWithGap{K: k, Epsilon: eps, Threshold: threshold, Monotonic: true, SigmaMultiplier: mult}
				res, err := m.Run(src, counts)
				if err != nil {
					b.Fatal(err)
				}
				total += float64(res.AboveCount)
			}
			b.ReportMetric(total/float64(b.N), "answers/run")
		})
	}
}

// BenchmarkAblationBudgetSplit sweeps the threshold/query budget split θ of
// Adaptive-Sparse-Vector-with-Gap around the Lyu et al. recommendation.
func BenchmarkAblationBudgetSplit(b *testing.B) {
	counts := dataset.BMSPOSConfig().ScaledDown(200).Generate(1).ItemCounts()
	const k, eps = 10, 140.0
	for _, theta := range []float64{0.05, 0.1777, 0.3, 0.5, 0.8} {
		b.Run(fmt.Sprintf("theta=%.4g", theta), func(b *testing.B) {
			src := rng.NewXoshiro(11)
			total := 0.0
			for i := 0; i < b.N; i++ {
				threshold := dataset.RandomThreshold(src, counts, k)
				m := &core.AdaptiveSVTWithGap{K: k, Epsilon: eps, Threshold: threshold, Monotonic: true, Theta: theta}
				res, err := m.Run(src, counts)
				if err != nil {
					b.Fatal(err)
				}
				total += float64(res.AboveCount)
			}
			b.ReportMetric(total/float64(b.N), "answers/run")
		})
	}
}

// BenchmarkAblationMeasureSplit sweeps the fraction of the total budget spent
// on selection versus measurement in the Section 5.2 Top-K protocol. The paper
// uses an even split.
func BenchmarkAblationMeasureSplit(b *testing.B) {
	counts := dataset.BMSPOSConfig().ScaledDown(200).Generate(1).ItemCounts()
	const k, eps = 10, 140.0
	for _, selectFrac := range []float64{0.25, 0.5, 0.75} {
		b.Run(fmt.Sprintf("select=%.0f%%", 100*selectFrac), func(b *testing.B) {
			src := rng.NewXoshiro(13)
			var se, n float64
			for i := 0; i < b.N; i++ {
				topk, err := core.NewTopKWithGap(k, eps*selectFrac, true)
				if err != nil {
					b.Fatal(err)
				}
				res, err := topk.Run(src, counts)
				if err != nil {
					b.Fatal(err)
				}
				meas, err := freegap.NewLaplaceMechanism(eps*(1-selectFrac), 1)
				if err != nil {
					b.Fatal(err)
				}
				measurements, err := meas.MeasureSelected(src, counts, res.Indices())
				if err != nil {
					b.Fatal(err)
				}
				refined, err := postprocess.BLUEFromVariances(measurements, res.Gaps()[:k-1],
					meas.MeasurementVariance(k), res.PerQueryNoiseVariance())
				if err != nil {
					b.Fatal(err)
				}
				for j, idx := range res.Indices() {
					d := refined[j] - counts[idx]
					se += d * d
					n++
				}
			}
			if n > 0 {
				b.ReportMetric(se/n, "refinedMSE")
			}
		})
	}
}

// BenchmarkAblationNoiseKind swaps the noise distribution inside
// Noisy-Top-K-with-Gap (privacy-equivalent alternatives; utility differs).
func BenchmarkAblationNoiseKind(b *testing.B) {
	counts := dataset.BMSPOSConfig().ScaledDown(200).Generate(1).ItemCounts()
	trueTop := dataset.TopKItems(counts, 10)
	trueSet := map[int]bool{}
	for _, idx := range trueTop {
		trueSet[idx] = true
	}
	const k, eps = 10, 140.0
	for _, kind := range []core.NoiseKind{core.NoiseLaplace, core.NoiseDiscreteLaplace, core.NoiseStaircase} {
		b.Run(kind.String(), func(b *testing.B) {
			src := rng.NewXoshiro(17)
			hits := 0.0
			for i := 0; i < b.N; i++ {
				m := &core.TopKWithGap{K: k, Epsilon: eps, Monotonic: true, Noise: kind, DiscreteBase: 1.0 / (1 << 20)}
				res, err := m.Run(src, counts)
				if err != nil {
					b.Fatal(err)
				}
				for _, idx := range res.Indices() {
					if trueSet[idx] {
						hits++
					}
				}
			}
			b.ReportMetric(hits/float64(b.N*k), "top10precision")
		})
	}
}

// --- Micro-benchmarks of the core mechanisms ---

func BenchmarkMechanismTopKWithGapRun(b *testing.B) {
	counts := dataset.BMSPOSConfig().ScaledDown(200).Generate(1).ItemCounts()
	for _, k := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("k=%d_n=%d", k, len(counts)), func(b *testing.B) {
			src := rng.NewXoshiro(1)
			m, err := core.NewTopKWithGap(k, 1, true)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Run(src, counts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// The serving path (pooled scratch) over Kosarak-shaped counts from 64
	// answers to Kosarak's 41,270 items, across the lazy sampler's cutoff.
	kosarak := dataset.KosarakConfig()
	for _, n := range []int{64, 256, 512, 1024, 2048, 4096, 16384, 41270} {
		counts := zipfCounts(n, float64(kosarak.Records)*kosarak.MeanLength, kosarak.ZipfExponent)
		b.Run(fmt.Sprintf("kosarak_k=10_n=%d", n), func(b *testing.B) {
			src := rng.NewXoshiro(1)
			m := core.TopKWithGap{K: 10, Epsilon: 1, Monotonic: true}
			var scr core.TopKScratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.RunScratch(src, counts, &scr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// zipfCounts returns the expected item counts of a Zipf(s) popularity over n
// items holding the given number of item occurrences: the shape the
// synthetic generators sample from, without materialising the records.
func zipfCounts(n int, occurrences, s float64) []float64 {
	counts := make([]float64, n)
	total := 0.0
	for i := range counts {
		counts[i] = math.Pow(float64(i+1), -s)
		total += counts[i]
	}
	for i := range counts {
		counts[i] = math.Round(counts[i] * occurrences / total)
	}
	return counts
}

func BenchmarkMechanismAdaptiveSVTRun(b *testing.B) {
	counts := dataset.BMSPOSConfig().ScaledDown(200).Generate(1).ItemCounts()
	src := rng.NewXoshiro(1)
	threshold := dataset.KthLargest(counts, 40)
	m, err := core.NewAdaptiveSVTWithGap(10, 1, threshold, true)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Run(src, counts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMechanismBLUE(b *testing.B) {
	for _, k := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			src := rng.NewXoshiro(1)
			alpha := make([]float64, k)
			gaps := make([]float64, k-1)
			for i := range alpha {
				alpha[i] = rng.Laplace(src, 10) + 1000
			}
			for i := range gaps {
				gaps[i] = rng.Laplace(src, 10) + 5
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := postprocess.BLUE(alpha, gaps, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMechanismLaplaceSampler(b *testing.B) {
	src := rng.NewXoshiro(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = rng.Laplace(src, 1)
	}
}

func BenchmarkDatasetGeneration(b *testing.B) {
	for _, name := range []string{"bmspos", "kosarak", "quest"} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				switch name {
				case "bmspos":
					_ = dataset.BMSPOSConfig().ScaledDown(200).Generate(uint64(i))
				case "kosarak":
					_ = dataset.KosarakConfig().ScaledDown(200).Generate(uint64(i))
				case "quest":
					_ = dataset.T40I10D100KConfig().ScaledDown(200).Generate(uint64(i))
				}
			}
		})
	}
}
