package core

import (
	"testing"

	"repro/internal/bh"
	"repro/internal/ic"
	"repro/internal/pp"
)

// multiJW builds the multi-device jw plan with the given device count.
// NewPlanByName names only K >= 2, so the count is set on an x2 plan before
// its first evaluation (which is when the device contexts are created).
func multiJW(t *testing.T, devices int, opts ...PlanOption) *MultiJW {
	t.Helper()
	p, err := NewPlanByName("jw-parallel-x2", opts...)
	if err != nil {
		t.Fatal(err)
	}
	m := p.(*MultiJW)
	m.Devices = devices
	return m
}

func TestMultiJWMatchesSingleDevice(t *testing.T) {
	opt := bh.DefaultOptions()
	sys := ic.Plummer(4096, 11)

	ctx := newHD5850Context(t)
	single := planOn[*JWParallel](t, ctx, "jw-parallel", WithBHOptions(opt))
	ref := sys.Clone()
	if _, err := single.Accel(ref); err != nil {
		t.Fatal(err)
	}

	for _, devices := range []int{1, 2, 4} {
		multi := multiJW(t, devices, WithBHOptions(opt))
		got := sys.Clone()
		prof, err := multi.Accel(got)
		if err != nil {
			t.Fatalf("devices=%d: %v", devices, err)
		}
		// Identical walks, identical arithmetic: results must be bitwise
		// equal to the single-device plan regardless of the sharding.
		for i := range ref.Acc {
			if ref.Acc[i] != got.Acc[i] {
				t.Fatalf("devices=%d: body %d differs: %v vs %v",
					devices, i, ref.Acc[i], got.Acc[i])
			}
		}
		if prof.Interactions <= 0 {
			t.Errorf("devices=%d: no interactions", devices)
		}
		if len(prof.Launches) != devices {
			t.Errorf("devices=%d: %d launches", devices, len(prof.Launches))
		}
	}
}

func TestMultiJWScales(t *testing.T) {
	opt := bh.DefaultOptions()
	sys := ic.Plummer(16384, 12)

	kernel := func(devices int) float64 {
		multi := multiJW(t, devices, WithBHOptions(opt))
		prof, err := multi.Accel(sys.Clone())
		if err != nil {
			t.Fatal(err)
		}
		return prof.Profile.KernelSeconds
	}
	t1 := kernel(1)
	t2 := kernel(2)
	t4 := kernel(4)
	if s := t1 / t2; s < 1.6 || s > 2.2 {
		t.Errorf("2-device speedup %.2fx, want ~2x (t1=%g t2=%g)", s, t1, t2)
	}
	if s := t1 / t4; s < 2.8 || s > 4.4 {
		t.Errorf("4-device speedup %.2fx, want ~4x (t1=%g t4=%g)", s, t1, t4)
	}
}

func TestMultiJWSmallSystem(t *testing.T) {
	// More devices than walks: some shards are empty; results still exact
	// against the direct sum's treecode tolerance.
	opt := bh.DefaultOptions()
	sys := ic.Plummer(64, 13)
	multi := multiJW(t, 8, WithBHOptions(opt))
	got := sys.Clone()
	if _, err := multi.Accel(got); err != nil {
		t.Fatal(err)
	}
	ref := sys.Clone()
	pp.Scalar(ref, pp.Params{G: opt.G, Eps: opt.Eps})
	if e := pp.RMSRelError(ref.Acc, got.Acc, 1e-3); e > 0.05 {
		t.Errorf("RMS error %g", e)
	}
}

func TestMultiJWValidation(t *testing.T) {
	multi := multiJW(t, 0)
	if _, err := multi.Accel(ic.Plummer(64, 1)); err == nil {
		t.Error("zero devices accepted")
	}
	multi = multiJW(t, 2)
	if _, err := multi.Accel(ic.Plummer(0, 1)); err == nil {
		t.Error("empty system accepted")
	}
	if multi.Name() != "jw-parallel x2" {
		t.Errorf("Name = %q", multi.Name())
	}
	if multi.Kind() != KindBH {
		t.Error("Kind wrong")
	}
}
