package core

import "github.com/freegap/freegap/internal/rng"

// LazyMinQueries exposes the lazy sampler's cutoff to the external tests.
const LazyMinQueries = lazyMinQueries

// LazySample runs the lazy sampler at RunScratch's level and head cutoff,
// also where RunScratch leaves the vector to the dense path because the head
// would hold nearly every answer. It returns nil where the sampler declines
// (a NaN answer, or a level that is not finite).
func (m *TopKWithGap) LazySample(src rng.Source, answers []float64) *TopKResult {
	var scr TopKScratch
	scale := m.NoiseScale()
	level := kthLargest(answers, m.K+1, scr.floats(m.K+1)) - lazyLevelScales*scale
	head := level - lazyHeadScales*scale
	if !finite(level) || !finite(head) {
		return nil
	}
	return m.lazySample(src, answers, level, head, &scr, scale)
}
