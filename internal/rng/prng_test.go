package rng

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestXoshiroFixedSeedOutput pins the generator's output for a fixed seed,
// before and after a Split, so layout changes cannot alter seeded noise.
func TestXoshiroFixedSeedOutput(t *testing.T) {
	x := NewXoshiro(42)
	for i, want := range []uint64{0x15780b2e0c2ec716, 0x6104d9866d113a7e, 0xae17533239e499a1} {
		if got := x.Uint64(); got != want {
			t.Errorf("draw %d = %#x, want %#x", i, got, want)
		}
	}
	c := x.Split()
	for i, want := range []uint64{0x16511c96fcb60869, 0xaa6e41b02f590413} {
		if got := c.Uint64(); got != want {
			t.Errorf("split draw %d = %#x, want %#x", i, got, want)
		}
	}
}

// TestSplitSourcesOwnCacheLines: per-worker sources split from one master
// must each sit alone on a 64-byte cache line, or concurrent workers
// false-share their generator state.
func TestSplitSourcesOwnCacheLines(t *testing.T) {
	const line = 64
	if size := unsafe.Sizeof(Xoshiro{}); size != line {
		t.Fatalf("sizeof(Xoshiro) = %d, want %d", size, line)
	}
	master := NewXoshiro(1)
	// srcs keeps every source live, so no address is freed and reused.
	srcs := make([]*Xoshiro, 64)
	lines := make(map[uintptr]int, len(srcs))
	for i := range srcs {
		srcs[i] = master.Split()
		addr := uintptr(unsafe.Pointer(srcs[i]))
		if addr%line != 0 {
			t.Fatalf("source %d at %#x is not 64-byte aligned", i, addr)
		}
		if j, taken := lines[addr/line]; taken {
			t.Fatalf("sources %d and %d share cache line %#x", j, i, addr/line*line)
		}
		lines[addr/line] = i
	}
}

func TestNewXoshiroDeterministic(t *testing.T) {
	a := NewXoshiro(42)
	b := NewXoshiro(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestNewXoshiroSeedsDiffer(t *testing.T) {
	a := NewXoshiro(1)
	b := NewXoshiro(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d identical outputs out of 100", same)
	}
}

func TestNewXoshiroZeroSeedValid(t *testing.T) {
	x := NewXoshiro(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[x.Uint64()] = true
	}
	if len(seen) < 90 {
		t.Fatalf("zero-seeded generator produced only %d distinct values in 100 draws", len(seen))
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := NewXoshiro(7)
	child := parent.Split()
	// Child and parent must not emit identical streams.
	same := 0
	for i := 0; i < 100; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split child mirrors parent: %d identical of 100", same)
	}
}

func TestSplitReproducible(t *testing.T) {
	a := NewXoshiro(7).Split()
	b := NewXoshiro(7).Split()
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("split of identical parents diverged at %d", i)
		}
	}
}

func TestFloat64OpenInterval(t *testing.T) {
	src := NewXoshiro(99)
	for i := 0; i < 100000; i++ {
		u := Float64(src)
		if u <= 0 || u >= 1 {
			t.Fatalf("Float64 produced %v outside (0,1)", u)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	src := NewXoshiro(5)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += Float64(src)
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean %v too far from 0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	src := NewXoshiro(3)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := Intn(src, n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(src, 0)")
		}
	}()
	Intn(NewXoshiro(1), 0)
}

func TestIntnUniformity(t *testing.T) {
	src := NewXoshiro(11)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[Intn(src, n)]++
	}
	expected := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-expected) > 0.08*expected {
			t.Fatalf("bucket %d count %d deviates from %v by more than 8%%", i, c, expected)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	src := NewXoshiro(21)
	f := func(raw uint8) bool {
		n := int(raw%64) + 1
		p := Perm(src, n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestNormalMoments(t *testing.T) {
	src := NewXoshiro(17)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := Normal(src)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %v too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance %v too far from 1", variance)
	}
}

func TestPoissonMean(t *testing.T) {
	src := NewXoshiro(13)
	for _, lambda := range []float64{0.5, 3, 10, 40, 100} {
		const n = 50000
		sum := 0
		for i := 0; i < n; i++ {
			sum += Poisson(src, lambda)
		}
		mean := float64(sum) / n
		if math.Abs(mean-lambda) > 0.05*lambda+0.05 {
			t.Fatalf("Poisson(%v) mean %v deviates too much", lambda, mean)
		}
	}
}

func TestPoissonNonNegative(t *testing.T) {
	src := NewXoshiro(1)
	if Poisson(src, 0) != 0 {
		t.Fatal("Poisson(0) must be 0")
	}
	if Poisson(src, -1) != 0 {
		t.Fatal("Poisson(negative) must be 0")
	}
}

func TestLockedSourceConcurrent(t *testing.T) {
	src := NewLockedSource(NewXoshiro(1))
	done := make(chan bool)
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 10000; i++ {
				src.Uint64()
			}
			done <- true
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}
