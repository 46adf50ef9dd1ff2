package core

import (
	"testing"
	"testing/quick"

	"repro/internal/bh"
	"repro/internal/body"
	"repro/internal/clc"
	"repro/internal/ic"
	"repro/internal/pp"
	"repro/internal/vec"
)

// TestShippedKernelSourcesRoundTrip checks every shipped OpenCL C kernel
// parses and that the clc formatter's output is a fixed point for them.
func TestShippedKernelSourcesRoundTrip(t *testing.T) {
	for name, src := range map[string]string{
		"iparallel":  IParallelCL,
		"jparallel":  JParallelCL,
		"wparallel":  WParallelCL,
		"jwparallel": JWParallelCL,
		"iparallel4": IParallelFloat4CL,
	} {
		p1, err := clc.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out1 := clc.Format(p1)
		p2, err := clc.Parse(out1)
		if err != nil {
			t.Fatalf("%s: reparse: %v", name, err)
		}
		if out2 := clc.Format(p2); out1 != out2 {
			t.Errorf("%s: format not a fixed point", name)
		}
	}
}

// TestQuickPlansMatchScalar property-tests the PP plans on random small
// systems: for any positions/masses, the i-parallel plan must agree with
// the scalar CPU sum bitwise (identical operation order) and j-parallel
// within reduction-order tolerance.
func TestQuickPlansMatchScalar(t *testing.T) {
	params := pp.DefaultParams()
	ctx := newHD5850Context(t)
	iPlan := planOn[*IParallel](t, ctx, "i-parallel", WithPPParams(params))
	jPlan := planOn[*JParallel](t, ctx, "j-parallel", WithPPParams(params))

	f := func(seed uint64, szRaw uint8) bool {
		n := int(szRaw)%60 + 2
		sys := randomSystem(n, seed)
		ref := sys.Clone()
		pp.Scalar(ref, params)

		gi := sys.Clone()
		if _, err := iPlan.Accel(gi); err != nil {
			t.Logf("i-parallel: %v", err)
			return false
		}
		for k := range ref.Acc {
			if ref.Acc[k] != gi.Acc[k] {
				t.Logf("i-parallel bitwise mismatch at %d: %v vs %v", k, ref.Acc[k], gi.Acc[k])
				return false
			}
		}

		gj := sys.Clone()
		if _, err := jPlan.Accel(gj); err != nil {
			t.Logf("j-parallel: %v", err)
			return false
		}
		return pp.MaxRelError(ref.Acc, gj.Acc, 1e-3) < 2e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestQuickBHPlansStayAccurate property-tests the walk plans on random
// clustered systems.
func TestQuickBHPlansStayAccurate(t *testing.T) {
	opt := bh.DefaultOptions()
	f := func(seed uint64, szRaw uint8) bool {
		n := int(szRaw)%200 + 16
		sys := ic.Plummer(n, seed)
		ref := sys.Clone()
		pp.Scalar(ref, pp.Params{G: opt.G, Eps: opt.Eps})

		ctx := newHD5850Context(t)
		jw := planOn[*JWParallel](t, ctx, "jw-parallel", WithBHOptions(opt))
		got := sys.Clone()
		if _, err := jw.Accel(got); err != nil {
			t.Logf("jw: %v", err)
			return false
		}
		return pp.RMSRelError(ref.Acc, got.Acc, 1e-3) < 0.05
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// randomSystem builds an arbitrary (but valid) system from a seed, without
// the physical structure ic generators impose.
func randomSystem(n int, seed uint64) *body.System {
	s := body.NewSystem(n)
	x := seed*2654435761 + 1
	next := func() float32 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return float32(int32(x>>33))/(1<<30) - 0.5
	}
	for i := 0; i < n; i++ {
		s.Pos[i] = vec.V3{X: next() * 4, Y: next() * 4, Z: next() * 4}
		s.Mass[i] = 0.01 + float32(uint8(x))/256
	}
	return s
}
