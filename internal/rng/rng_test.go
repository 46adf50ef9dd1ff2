package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(12345)
	b := New(12345)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("sequences diverge at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d/100 identical outputs from different seeds", same)
	}
}

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference values from the published SplitMix64 algorithm with seed 0.
	state := uint64(0)
	want := []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f}
	for i, w := range want {
		if got := SplitMix64(&state); got != w {
			t.Errorf("SplitMix64 step %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestFloat64Range01(t *testing.T) {
	r := New(7)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %g out of [0,1)", f)
		}
		sum += f
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean of Float64 = %g, want ~0.5", mean)
	}
}

func TestFloat64RangeBounds(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64Range(-3, 5)
		if f < -3 || f >= 5 {
			t.Fatalf("Float64Range(-3,5) = %g", f)
		}
	}
}

func TestUint64BitUniformity(t *testing.T) {
	r := New(99)
	const n = 20000
	var counts [64]int
	for i := 0; i < n; i++ {
		v := r.Uint64()
		for b := 0; b < 64; b++ {
			if v&(1<<b) != 0 {
				counts[b]++
			}
		}
	}
	for b, c := range counts {
		frac := float64(c) / n
		if frac < 0.47 || frac > 0.53 {
			t.Errorf("bit %d set fraction %g, want ~0.5", b, frac)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(11)
	const n = 200000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %g, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %g, want ~1", variance)
	}
}

func TestUnitSphereOnSurface(t *testing.T) {
	r := New(13)
	var sx, sy, sz float64
	for i := 0; i < 10000; i++ {
		x, y, z := r.UnitSphere()
		if d := math.Abs(math.Sqrt(x*x+y*y+z*z) - 1); d > 1e-12 {
			t.Fatalf("UnitSphere point off surface by %g", d)
		}
		sx += x
		sy += y
		sz += z
	}
	// Directional uniformity: the mean direction should vanish.
	for _, m := range []float64{sx, sy, sz} {
		if math.Abs(m/10000) > 0.02 {
			t.Errorf("UnitSphere mean component %g, want ~0", m/10000)
		}
	}
}
