package engine

import (
	"reflect"
	"testing"

	"github.com/freegap/freegap/internal/core"
	"github.com/freegap/freegap/internal/rng"
)

// TestExecuteUnitNoiseBitIdentity pins the batch prenoise contract: for every
// UnitNoiser mechanism, pre-filling UnitNoiseLen unit-scale Laplace samples
// and running ExecuteUnitNoise must produce a bit-identical response to
// Execute drawing from the same source — the factorisation
// Laplace(scale) == scale·Laplace(1) is exact in IEEE arithmetic, so batch
// requests may share one vectorized noise fill without changing any output.
func TestExecuteUnitNoiseBitIdentity(t *testing.T) {
	reg := DefaultRegistry()
	answers := []float64{812, 641, 633, 601, 425, 124, 77, 8, -3, 0.5}
	reqs := map[string]Request{
		"topk": &TopKRequest{Common: Common{Epsilon: 0.8, Answers: answers, Monotonic: true}, K: 3},
		"max":  &MaxRequest{Common: Common{Epsilon: 0.4, Answers: answers}},
	}
	for name, req := range reqs {
		t.Run(name, func(t *testing.T) {
			mech, err := reg.Get(name)
			if err != nil {
				t.Fatalf("Get(%q): %v", name, err)
			}
			un, ok := mech.(UnitNoiser)
			if !ok {
				t.Fatalf("%s does not implement UnitNoiser", name)
			}
			n := un.UnitNoiseLen(req)
			if n != len(answers) {
				t.Fatalf("UnitNoiseLen = %d, want %d", n, len(answers))
			}

			const seed = 99
			direct, err := mech.Execute(rng.NewXoshiro(seed), req, nil)
			if err != nil {
				t.Fatalf("Execute: %v", err)
			}
			unit := rng.LaplaceVec(rng.NewXoshiro(seed), 1, n, nil)
			pre, err := un.ExecuteUnitNoise(req, unit, nil)
			if err != nil {
				t.Fatalf("ExecuteUnitNoise: %v", err)
			}
			if !reflect.DeepEqual(direct, pre) {
				t.Errorf("prenoised response differs:\n direct %+v\n pre    %+v", direct, pre)
			}
		})
	}

	// SVT draws a data-dependent number of samples, so it must opt out.
	svt, err := reg.Get("svt")
	if err != nil {
		t.Fatalf("Get(svt): %v", err)
	}
	if _, ok := svt.(UnitNoiser); ok {
		t.Error("svt implements UnitNoiser; its draw count is data-dependent")
	}
	// Wrong request type opts out per-request rather than failing.
	topk, _ := reg.Get("topk")
	if got := topk.(UnitNoiser).UnitNoiseLen(reqs["max"]); got != -1 {
		t.Errorf("topk.UnitNoiseLen(max request) = %d, want -1", got)
	}
}

// TestUnitNoiseLenOptsOutFromLazyCutoff pins the other half of the prenoise
// contract: from core's lazy-sampling cutoff on, topk and max draw a
// data-dependent number of samples, so they report -1 and batch callers run
// them through Execute with a live source.
func TestUnitNoiseLenOptsOutFromLazyCutoff(t *testing.T) {
	cutoff := 1
	for !(&core.TopKWithGap{}).SamplesLazily(cutoff) {
		cutoff++
	}
	reg := DefaultRegistry()
	for _, n := range []int{cutoff - 1, cutoff, 4 * cutoff} {
		answers := make([]float64, n)
		reqs := map[string]Request{
			"topk": &TopKRequest{Common: Common{Epsilon: 1, Answers: answers, Monotonic: true}, K: 10},
			"max":  &MaxRequest{Common: Common{Epsilon: 1, Answers: answers}},
		}
		want := n
		if n >= cutoff {
			want = -1
		}
		for name, req := range reqs {
			mech, err := reg.Get(name)
			if err != nil {
				t.Fatalf("Get(%q): %v", name, err)
			}
			if got := mech.(UnitNoiser).UnitNoiseLen(req); got != want {
				t.Errorf("%s.UnitNoiseLen over %d answers = %d, want %d (cutoff %d)", name, n, got, want, cutoff)
			}
		}
	}
}
