package gpusim

import (
	"strings"
	"sync/atomic"
	"testing"
)

func testDev(t testing.TB) *Device {
	t.Helper()
	d, err := NewDevice(TestDevice())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestLaunchParamValidation(t *testing.T) {
	d := testDev(t)
	noop := PerItem(func(wi *Item) {})
	cases := []LaunchParams{
		{Global: 0, Local: 8},
		{Global: 8, Local: 0},
		{Global: 10, Local: 8}, // not a multiple
		{Global: 8, Local: 8, LDSFloats: 1 << 20},
		{Global: 8, Local: 8, LDSFloats: -1},
		{Global: 8, Local: 8, LDSFloats: 1 << 62}, // LDSFloats*4 overflows int
	}
	for _, p := range cases {
		if _, err := d.Launch("bad", noop, p); err == nil || !strings.Contains(err.Error(), "kernel bad") {
			t.Errorf("params %+v: err = %v, want an error naming the kernel", p, err)
		}
	}
}

func TestIDsAndGeometry(t *testing.T) {
	d := testDev(t)
	const global, local = 64, 16
	var hits [global]int32
	_, err := d.Launch("ids", PerItem(func(wi *Item) {
		atomic.AddInt32(&hits[wi.GlobalID()], 1)
		if wi.GlobalID() != wi.GroupID()*local+wi.LocalID() {
			panic("id mismatch")
		}
		if wi.LocalSize() != local || wi.GlobalSize() != global || wi.NumGroups() != global/local {
			panic("geometry mismatch")
		}
	}), LaunchParams{Global: global, Local: local})
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("work-item %d executed %d times", i, h)
		}
	}
}

func TestBarrierLockstep(t *testing.T) {
	// Phase counter: after every barrier, all items of the group must have
	// completed the preceding phase. Item 0 writes, others read after the
	// barrier.
	d := testDev(t)
	const local = 16
	buf := d.NewBufferF32("phase", local)
	res, err := d.Launch("lockstep", PerItem(func(wi *Item) {
		lds := wi.RawLDS()
		for phase := 0; phase < 10; phase++ {
			if wi.LocalID() == 0 {
				lds[0] = float32(phase)
			}
			wi.Barrier()
			if lds[0] != float32(phase) {
				panic("barrier did not synchronise")
			}
			wi.Barrier()
		}
		if wi.GroupID() == 0 {
			wi.StoreGlobalF32(buf, wi.LocalID(), 1)
		}
	}), LaunchParams{Global: local * 2, Local: local, LDSFloats: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Groups[0].Barriers != 20 {
		t.Errorf("group 0 crossed %d barriers, want 20", res.Groups[0].Barriers)
	}
}

func TestBarrierWithEarlyExit(t *testing.T) {
	// Half the items return before the barrier; the rest must not deadlock.
	d := testDev(t)
	done := int32(0)
	_, err := d.Launch("early-exit", PerItem(func(wi *Item) {
		if wi.LocalID()%2 == 0 {
			return
		}
		wi.Barrier()
		atomic.AddInt32(&done, 1)
	}), LaunchParams{Global: 16, Local: 16})
	if err != nil {
		t.Fatal(err)
	}
	if done != 8 {
		t.Errorf("%d items passed the barrier, want 8", done)
	}
}

func TestLDSVisibilityAcrossBarrier(t *testing.T) {
	// Classic tile exchange: each item writes slot l, reads slot (l+1)%p
	// after the barrier.
	d := testDev(t)
	const local = 8
	out := d.NewBufferF32("out", local)
	_, err := d.Launch("exchange", PerItem(func(wi *Item) {
		l := wi.LocalID()
		wi.StoreLDS(l, float32(l*10))
		wi.Barrier()
		v := wi.LoadLDS((l + 1) % local)
		wi.StoreGlobalF32(out, l, v)
	}), LaunchParams{Global: local, Local: local, LDSFloats: local})
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < local; l++ {
		want := float32(((l + 1) % local) * 10)
		if got := out.HostF32()[l]; got != want {
			t.Errorf("slot %d = %g, want %g", l, got, want)
		}
	}
}

func TestLDSIsPerGroup(t *testing.T) {
	// Groups must not see each other's local memory.
	d := testDev(t)
	out := d.NewBufferF32("out", 16)
	_, err := d.Launch("lds-isolation", PerItem(func(wi *Item) {
		if wi.LocalID() == 0 {
			wi.StoreLDS(0, float32(wi.GroupID()+1))
		}
		wi.Barrier()
		wi.StoreGlobalF32(out, wi.GlobalID(), wi.LoadLDS(0))
	}), LaunchParams{Global: 16, Local: 8, LDSFloats: 4})
	if err != nil {
		t.Fatal(err)
	}
	h := out.HostF32()
	for i := 0; i < 8; i++ {
		if h[i] != 1 {
			t.Errorf("group 0 item %d saw %g", i, h[i])
		}
		if h[8+i] != 2 {
			t.Errorf("group 1 item %d saw %g", i, h[8+i])
		}
	}
}

func TestCounterAccounting(t *testing.T) {
	d := testDev(t)
	buf := d.NewBufferF32("data", 64)
	ibuf := d.NewBufferI32("idx", 64)
	res, err := d.Launch("counters", PerItem(func(wi *Item) {
		g := wi.GlobalID()
		l := wi.LocalID()
		_ = wi.LoadGlobalF32(buf, g)  // 4 coalesced
		wi.StoreGlobalF32(buf, g, 1)  // 4 coalesced
		_ = wi.LoadGlobalI32(ibuf, g) // 4 coalesced
		wi.StoreGlobalI32(ibuf, g, 3) // 4 coalesced
		wi.StoreLDS(l, 1)             // 4 LDS
		_ = wi.LoadLDS(l)             // 4 LDS
		wi.ChargeGlobal(100, 10)
		wi.ChargeLDS(8)
		wi.Flops(7)
		wi.Aux(3)
	}), LaunchParams{Global: 16, Local: 8, LDSFloats: 8})
	if err != nil {
		t.Fatal(err)
	}
	for gi, g := range res.Groups {
		const lanes = 8
		if g.BytesCoalesced != lanes*(12+4+100) {
			t.Errorf("group %d coalesced = %d", gi, g.BytesCoalesced)
		}
		if g.BytesScattered != lanes*10 {
			t.Errorf("group %d scattered = %d", gi, g.BytesScattered)
		}
		if g.LDSBytes != lanes*16 {
			t.Errorf("group %d lds = %d", gi, g.LDSBytes)
		}
		if g.Flops != lanes*7 || g.AuxFlops != lanes*3 {
			t.Errorf("group %d flops = %d aux = %d", gi, g.Flops, g.AuxFlops)
		}
		// Uniform lanes, wavefront 8, one wavefront per group: max = 10.
		if g.WFMaxFlops != 10 {
			t.Errorf("group %d WFMaxFlops = %d, want 10", gi, g.WFMaxFlops)
		}
	}
}

func TestDivergenceUsesWavefrontMax(t *testing.T) {
	d := testDev(t) // wavefront 8
	res, err := d.Launch("divergent", PerItem(func(wi *Item) {
		// Lane l performs l flops: wavefront max is 7 per 8-lane wavefront.
		wi.Flops(wi.LocalID())
	}), LaunchParams{Global: 16, Local: 16})
	if err != nil {
		t.Fatal(err)
	}
	g := res.Groups[0]
	// Two wavefronts of the 16-wide group: lanes 0-7 max 7, lanes 8-15 max 15.
	if g.WFMaxFlops != 7+15 {
		t.Errorf("WFMaxFlops = %d, want 22", g.WFMaxFlops)
	}
	if g.Flops != 2*(0+1+2+3+4+5+6+7+8+9+10+11+12+13+14+15)/2 {
		t.Errorf("Flops = %d", g.Flops)
	}
	// Divergence factor: wavefront-max total 22 vs convergent
	// mean-per-lane (120/16) * 2 wavefronts = 15.
	want := 22.0 / 15.0
	if got := res.Timing.DivergenceFactor; got < want-1e-9 || got > want+1e-9 {
		t.Errorf("DivergenceFactor = %g, want %g", got, want)
	}
}

func TestDivergenceFactorUniformIsOne(t *testing.T) {
	d := testDev(t)
	res := launchUniform(t, d, 2, 100, 16, 0, 0)
	if got := res.Timing.DivergenceFactor; got < 1-1e-9 || got > 1+1e-9 {
		t.Errorf("uniform kernel DivergenceFactor = %g, want 1", got)
	}
}

func TestKernelPanicBecomesError(t *testing.T) {
	d := testDev(t)
	_, err := d.Launch("panics", PerItem(func(wi *Item) {
		panic("boom")
	}), LaunchParams{Global: 8, Local: 8})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v", err)
	}
	// Out-of-range buffer access is also converted.
	buf := d.NewBufferF32("small", 4)
	_, err = d.Launch("overrun", PerItem(func(wi *Item) {
		wi.StoreGlobalF32(buf, 100, 1)
	}), LaunchParams{Global: 8, Local: 8})
	if err == nil || !strings.Contains(err.Error(), "small") {
		t.Fatalf("overrun err = %v", err)
	}
	// Type confusion too.
	_, err = d.Launch("confused", PerItem(func(wi *Item) {
		wi.LoadGlobalI32(buf, 0)
	}), LaunchParams{Global: 8, Local: 8})
	if err == nil || !strings.Contains(err.Error(), "int access") {
		t.Fatalf("type confusion err = %v", err)
	}
}

func TestLaunchIsDeterministic(t *testing.T) {
	// Same kernel twice: identical buffer contents and counters.
	run := func() (*Result, []float32) {
		d := testDev(t)
		in := d.NewBufferF32("in", 64)
		out := d.NewBufferF32("out", 64)
		for i := range in.HostF32() {
			in.HostF32()[i] = float32(i)
		}
		res, err := d.Launch("det", PerItem(func(wi *Item) {
			var sum float32
			for j := 0; j < 64; j++ {
				sum += wi.LoadGlobalF32(in, j)
			}
			wi.Flops(64)
			wi.StoreGlobalF32(out, wi.GlobalID(), sum*float32(wi.GlobalID()))
		}), LaunchParams{Global: 64, Local: 8})
		if err != nil {
			t.Fatal(err)
		}
		return res, append([]float32(nil), out.HostF32()...)
	}
	r1, o1 := run()
	r2, o2 := run()
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("output %d differs: %g vs %g", i, o1[i], o2[i])
		}
	}
	if r1.Timing.KernelSeconds != r2.Timing.KernelSeconds {
		t.Errorf("modelled times differ: %g vs %g", r1.Timing.KernelSeconds, r2.Timing.KernelSeconds)
	}
	if r1.TotalFlops() != r2.TotalFlops() {
		t.Errorf("flop counts differ")
	}
}

func TestBufferAllocation(t *testing.T) {
	d := testDev(t)
	f := d.NewBufferF32("f", 10)
	i := d.NewBufferI32("i", 5)
	if f.Len() != 10 || i.Len() != 5 {
		t.Error("lengths wrong")
	}
	if !f.IsFloat() || i.IsFloat() {
		t.Error("type flags wrong")
	}
	if f.Name() != "f" {
		t.Error("name wrong")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("HostI32 on float buffer did not panic")
			}
		}()
		f.HostI32()
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative size did not panic")
			}
		}()
		d.NewBufferF32("neg", -1)
	}()
}

func TestDeviceConfigValidation(t *testing.T) {
	good := TestDevice()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	mutations := []func(*DeviceConfig){
		func(c *DeviceConfig) { c.ComputeUnits = 0 },
		func(c *DeviceConfig) { c.LanesPerCU = 0 },
		func(c *DeviceConfig) { c.WavefrontSize = 7 }, // not multiple of lanes
		func(c *DeviceConfig) { c.ClockHz = 0 },
		func(c *DeviceConfig) { c.VLIWPacking = 0 },
		func(c *DeviceConfig) { c.VLIWPacking = 1.5 },
		func(c *DeviceConfig) { c.HideWavefronts = 0 },
		func(c *DeviceConfig) { c.LDSPerCU = 0 },
	}
	for i, m := range mutations {
		c := TestDevice()
		m(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
		if _, err := NewDevice(c); err == nil {
			t.Errorf("NewDevice accepted mutation %d", i)
		}
	}
}

func TestHD5850Peak(t *testing.T) {
	c := HD5850()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// 1440 ALUs x 2 flops x 0.725 GHz = 2088 GFLOPS.
	if p := c.PeakGFLOPS(); p < 2087 || p > 2089 {
		t.Errorf("peak = %g, want ~2088", p)
	}
}

func TestMustNewDevicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNewDevice accepted bad config")
		}
	}()
	bad := TestDevice()
	bad.ComputeUnits = 0
	MustNewDevice(bad)
}
