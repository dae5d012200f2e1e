package rng

import (
	"math"
	"math/bits"
	"sync"
)

// Source is the minimal interface every sampler in this package draws from.
// It matches the shape of math/rand/v2 sources but is defined locally so the
// library has no dependency on a particular standard-library generation.
type Source interface {
	// Uint64 returns a uniformly distributed 64-bit value.
	Uint64() uint64
}

// splitmix64 advances a SplitMix64 state and returns the next output.
// SplitMix64 is used both as a seed expander for xoshiro256** and as the
// stream-splitting function, following the recommendation of Blackman and
// Vigna.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Xoshiro is a xoshiro256** generator. It is deterministic, fast, and has a
// period of 2^256−1, which is more than sufficient for the Monte-Carlo
// experiment sizes used by the harness. The zero value is not a valid
// generator; use NewXoshiro or Split.
//
// The 32-byte state is padded to a full 64-byte cache line. Generators are
// heap-allocated from the 64-byte size class, so each one owns its line and
// per-worker sources split from one master never false-share: two workers
// drawing noise at once would otherwise bounce a shared line between cores.
type Xoshiro struct {
	s [4]uint64
	_ [32]byte
}

// NewXoshiro returns a generator seeded from the given seed via SplitMix64,
// as recommended by the xoshiro authors to avoid correlated low-entropy
// states.
func NewXoshiro(seed uint64) *Xoshiro {
	x := &Xoshiro{}
	sm := seed
	for i := range x.s {
		x.s[i] = splitmix64(&sm)
	}
	// Guard against the all-zero state, which is a fixed point.
	if x.s[0]|x.s[1]|x.s[2]|x.s[3] == 0 {
		x.s[0] = 0x9e3779b97f4a7c15
	}
	return x
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next value of the xoshiro256** sequence.
func (x *Xoshiro) Uint64() uint64 {
	result := rotl(x.s[1]*5, 7) * 9
	t := x.s[1] << 17
	x.s[2] ^= x.s[0]
	x.s[3] ^= x.s[1]
	x.s[1] ^= x.s[2]
	x.s[0] ^= x.s[3]
	x.s[2] ^= t
	x.s[3] = rotl(x.s[3], 45)
	return result
}

// Split returns a new generator whose stream is statistically independent of
// the receiver's future output. It hashes the current state through SplitMix64
// so that repeated splits from the same point yield distinct children.
func (x *Xoshiro) Split() *Xoshiro {
	seed := x.Uint64()
	return NewXoshiro(seed ^ 0xa3ec647659359acd)
}

// Float64 returns a uniform value in the open interval (0, 1). The open
// interval matters: the inverse-CDF Laplace sampler evaluates log(u) and
// log(1−u), so 0 and 1 must never be produced.
func Float64(src Source) float64 {
	for {
		// 53 random mantissa bits, shifted into [0,1).
		u := float64(src.Uint64()>>11) * (1.0 / (1 << 53))
		if u > 0 && u < 1 {
			return u
		}
	}
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
// It uses Lemire's nearly-divisionless bounded rejection method.
func Intn(src Source, n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	bound := uint64(n)
	for {
		v := src.Uint64()
		hi, lo := bits.Mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// Perm returns a uniformly random permutation of [0, n) using Fisher-Yates.
func Perm(src Source, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := Intn(src, i+1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Normal returns a standard normal sample using the Box-Muller transform.
// It is only used by test utilities and synthetic data generators; none of
// the privacy mechanisms rely on Gaussian noise.
func Normal(src Source) float64 {
	u1 := Float64(src)
	u2 := Float64(src)
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Poisson returns a Poisson(λ) sample. For small λ it uses Knuth's product
// method; for large λ it falls back to the normal approximation rounded to a
// non-negative integer, which is accurate enough for transaction-length
// generation in the Quest dataset generator.
func Poisson(src Source, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda < 30 {
		l := math.Exp(-lambda)
		k := 0
		p := 1.0
		for {
			k++
			p *= Float64(src)
			if p <= l {
				return k - 1
			}
		}
	}
	n := Normal(src)*math.Sqrt(lambda) + lambda
	if n < 0 {
		return 0
	}
	return int(math.Round(n))
}

// LockedSource wraps a Source with a mutex so it can be shared by concurrent
// workers (the experiment harness fans trials out across goroutines).
type LockedSource struct {
	mu  sync.Mutex
	src Source
}

// NewLockedSource returns a concurrency-safe view of src.
func NewLockedSource(src Source) *LockedSource {
	return &LockedSource{src: src}
}

// Uint64 implements Source.
func (l *LockedSource) Uint64() uint64 {
	l.mu.Lock()
	v := l.src.Uint64()
	l.mu.Unlock()
	return v
}
