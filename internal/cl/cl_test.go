package cl

import (
	"math"
	"testing"

	"repro/internal/gpusim"
)

func newTestContext(t *testing.T) *Context {
	t.Helper()
	ctx, err := NewContext(gpusim.TestDevice())
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

func TestNewContextRejectsBadConfig(t *testing.T) {
	bad := gpusim.TestDevice()
	bad.ComputeUnits = 0
	if _, err := NewContext(bad); err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestTransferRoundTrip(t *testing.T) {
	ctx := newTestContext(t)
	q := ctx.NewQueue()
	buf := ctx.Device().NewBufferF32("data", 8)

	src := []float32{1, 2, 3, 4, 5, 6, 7, 8}
	ev, err := q.EnqueueWriteF32(buf, src)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Kind != KindTransfer || ev.Bytes != 32 {
		t.Errorf("write event %+v", ev)
	}
	dst := make([]float32, 8)
	if _, err := q.EnqueueReadF32(buf, dst); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("round trip lost data at %d", i)
		}
	}
}

func TestTransferSizeErrors(t *testing.T) {
	ctx := newTestContext(t)
	q := ctx.NewQueue()
	f := ctx.Device().NewBufferF32("f", 2)
	i := ctx.Device().NewBufferI32("i", 2)
	if _, err := q.EnqueueWriteF32(f, make([]float32, 3)); err == nil {
		t.Error("oversized float write accepted")
	}
	if _, err := q.EnqueueWriteI32(i, make([]int32, 3)); err == nil {
		t.Error("oversized int write accepted")
	}
	if _, err := q.EnqueueReadF32(f, make([]float32, 3)); err == nil {
		t.Error("oversized read accepted")
	}
}

func TestTimelineAdvancesInOrder(t *testing.T) {
	ctx := newTestContext(t)
	q := ctx.NewQueue()
	buf := ctx.Device().NewBufferF32("data", 64)

	q.EnqueueWriteF32(buf, make([]float32, 64))
	q.EnqueueHostWork("prep", 1e-3)
	_, err := q.EnqueueNDRange("k", gpusim.PerItem(func(wi *gpusim.Item) { wi.Flops(10) }),
		gpusim.LaunchParams{Global: 8, Local: 8})
	if err != nil {
		t.Fatal(err)
	}
	evs := q.events
	if len(evs) != 3 {
		t.Fatalf("%d events", len(evs))
	}
	var prev float64
	for i, e := range evs {
		if e.Start != prev {
			t.Errorf("event %d starts at %g, want %g (in-order queue)", i, e.Start, prev)
		}
		if e.Seconds() <= 0 {
			t.Errorf("event %d has duration %g", i, e.Seconds())
		}
		prev = e.End
	}
	if q.now != prev {
		t.Errorf("timeline horizon = %g, want %g", q.now, prev)
	}
}

func TestProfileAggregation(t *testing.T) {
	ctx := newTestContext(t)
	q := ctx.NewQueue()
	buf := ctx.Device().NewBufferF32("data", 64)

	q.EnqueueWriteF32(buf, make([]float32, 64))
	q.EnqueueHostWork("tree", 2e-3)
	ev, err := q.EnqueueNDRange("k", gpusim.PerItem(func(wi *gpusim.Item) { wi.Flops(100) }),
		gpusim.LaunchParams{Global: 16, Local: 8})
	if err != nil {
		t.Fatal(err)
	}
	q.EnqueueReadF32(buf, make([]float32, 64))

	p := q.Profile()
	if p.HostSeconds != 2e-3 {
		t.Errorf("host seconds %g", p.HostSeconds)
	}
	if p.TransferBytes != 512 {
		t.Errorf("transfer bytes %d, want 512", p.TransferBytes)
	}
	if p.KernelSeconds != ev.Seconds() {
		t.Errorf("kernel seconds %g != event %g", p.KernelSeconds, ev.Seconds())
	}
	if p.KernelFlops != 16*100 {
		t.Errorf("kernel flops %d", p.KernelFlops)
	}
	want := p.KernelSeconds + p.TransferSeconds + p.HostSeconds
	if math.Abs(p.TotalSeconds()-want) > 1e-15 {
		t.Errorf("TotalSeconds = %g", p.TotalSeconds())
	}
	if math.Abs(p.TotalSeconds()-q.now) > 1e-15 {
		t.Errorf("profile total %g != timeline %g", p.TotalSeconds(), q.now)
	}
}

func TestQueueReset(t *testing.T) {
	ctx := newTestContext(t)
	q := ctx.NewQueue()
	buf := ctx.Device().NewBufferF32("data", 4)
	q.EnqueueWriteF32(buf, []float32{1, 2, 3, 4})
	q.Reset()
	if q.now != 0 || len(q.events) != 0 {
		t.Error("Reset did not clear the queue")
	}
	// Buffer contents survive a queue reset.
	if buf.HostF32()[2] != 3 {
		t.Error("Reset clobbered buffer contents")
	}
}

func TestKernelErrorPropagates(t *testing.T) {
	ctx := newTestContext(t)
	q := ctx.NewQueue()
	_, err := q.EnqueueNDRange("bad", gpusim.PerItem(func(wi *gpusim.Item) { panic("kernel bug") }),
		gpusim.LaunchParams{Global: 8, Local: 8})
	if err == nil {
		t.Fatal("kernel panic not surfaced")
	}
	if len(q.events) != 0 {
		t.Error("failed launch recorded an event")
	}
}

func TestPipelinedSeconds(t *testing.T) {
	p := Profile{KernelSeconds: 2, TransferSeconds: 1, HostSeconds: 5}
	if got := p.PipelinedSeconds(); got != 5 {
		t.Errorf("host-bound pipelined = %g, want 5", got)
	}
	p.HostSeconds = 1
	if got := p.PipelinedSeconds(); got != 3 {
		t.Errorf("device-bound pipelined = %g, want 3", got)
	}
	if p.PipelinedSeconds() > p.TotalSeconds() {
		t.Error("pipelined exceeds serial total")
	}
}

func TestProgramVectorAdd(t *testing.T) {
	ctx := newTestContext(t)
	prog, err := ctx.CreateProgram(`
__kernel void vadd(__global const float* a, __global float* out, float s, int n) {
    int i = get_global_id(0);
    if (i < n) { out[i] = a[i] * s; }
}`)
	if err != nil {
		t.Fatal(err)
	}
	if names := prog.KernelNames(); len(names) != 1 || names[0] != "vadd" {
		t.Fatalf("KernelNames = %v", names)
	}
	k, err := prog.CreateKernel("vadd")
	if err != nil {
		t.Fatal(err)
	}
	dev := ctx.Device()
	a := dev.NewBufferF32("a", 16)
	out := dev.NewBufferF32("out", 16)
	q := ctx.NewQueue()
	src := make([]float32, 16)
	for i := range src {
		src[i] = float32(i)
	}
	if _, err := q.EnqueueWriteF32(a, src); err != nil {
		t.Fatal(err)
	}
	if err := k.SetArgs(a, out, float64(2.5), 12); err != nil {
		t.Fatal(err)
	}
	ev, err := q.EnqueueCLKernel(k, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Kind != KindKernel {
		t.Errorf("event kind %v", ev.Kind)
	}
	for i := 0; i < 12; i++ {
		if out.HostF32()[i] != float32(i)*2.5 {
			t.Fatalf("out[%d] = %g", i, out.HostF32()[i])
		}
	}
	// Arg mismatch surfaces eagerly, at the clSetKernelArg analogue.
	if err := k.SetArgs(a, out, 1); err == nil {
		t.Error("bad arity accepted at SetArgs")
	}
}
