package cl

import (
	"math"
	"testing"

	"repro/internal/gpusim"
	"repro/internal/obs"
)

func TestProfileEmptyQueue(t *testing.T) {
	ctx := newTestContext(t)
	q := ctx.NewQueue()
	p := q.Profile()
	if p.TotalSeconds() != 0 {
		t.Errorf("empty queue TotalSeconds = %g", p.TotalSeconds())
	}
	if p.PipelinedSeconds() != 0 {
		t.Errorf("empty queue PipelinedSeconds = %g", p.PipelinedSeconds())
	}
	if p.KernelSeconds != 0 || p.TransferSeconds != 0 || p.HostSeconds != 0 ||
		p.TransferBytes != 0 || p.KernelFlops != 0 {
		t.Errorf("empty queue profile not zero: %+v", p)
	}
	if q.Now() != 0 {
		t.Errorf("empty queue Now = %g", q.Now())
	}
}

func TestProfileInterleavedKinds(t *testing.T) {
	ctx := newTestContext(t)
	q := ctx.NewQueue()
	buf := ctx.Device().NewBufferF32("data", 64)

	// Interleave the three kinds so per-kind sums must separate commands
	// that alternate on the timeline, not contiguous blocks.
	q.EnqueueHostWork("tree", 2e-3)
	if _, err := q.EnqueueWriteF32(buf, make([]float32, 64)); err != nil {
		t.Fatal(err)
	}
	q.EnqueueHostWork("lists", 3e-3)
	if _, err := q.EnqueueNDRange("k", gpusim.PerItem(func(wi *gpusim.Item) { wi.Flops(10) }),
		gpusim.LaunchParams{Global: 8, Local: 8}); err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueReadF32(buf, make([]float32, 64)); err != nil {
		t.Fatal(err)
	}

	p := q.Profile()
	if got, want := p.HostSeconds, 5e-3; math.Abs(got-want) > 1e-12 {
		t.Errorf("HostSeconds = %g, want %g", got, want)
	}
	if p.TransferBytes != 2*64*4 {
		t.Errorf("TransferBytes = %d, want %d", p.TransferBytes, 2*64*4)
	}
	if p.KernelSeconds <= 0 || p.TransferSeconds <= 0 {
		t.Errorf("kind sums: kernel %g transfer %g", p.KernelSeconds, p.TransferSeconds)
	}
	if got, want := p.TotalSeconds(), p.KernelSeconds+p.TransferSeconds+p.HostSeconds; got != want {
		t.Errorf("TotalSeconds = %g, want %g", got, want)
	}
	// Host side dominates here, so the double-buffered steady state is
	// host-bound.
	if got := p.PipelinedSeconds(); got != p.HostSeconds {
		t.Errorf("PipelinedSeconds = %g, want host-bound %g", got, p.HostSeconds)
	}
}

func TestQueueTimestampsMonotonePerQueue(t *testing.T) {
	ctx := newTestContext(t)
	qa := ctx.NewQueue()
	qb := ctx.NewQueue()
	buf := ctx.Device().NewBufferF32("data", 32)

	// Alternate commands between two queues on the same context: each
	// queue's timeline must advance monotonically and independently.
	for i := 0; i < 3; i++ {
		if _, err := qa.EnqueueWriteF32(buf, make([]float32, 32)); err != nil {
			t.Fatal(err)
		}
		qb.EnqueueHostWork("hb", 1e-3)
	}
	for name, q := range map[string]*Queue{"a": qa, "b": qb} {
		var prev float64
		for i, e := range q.Events() {
			if e.Start != prev {
				t.Errorf("queue %s event %d starts at %g, want %g", name, i, e.Start, prev)
			}
			if e.End < e.Start {
				t.Errorf("queue %s event %d ends before it starts: %+v", name, i, e)
			}
			prev = e.End
		}
		if q.Now() != prev {
			t.Errorf("queue %s Now = %g, want %g", name, q.Now(), prev)
		}
	}
	if qa.Now() == qb.Now() {
		t.Error("independent queues coincidentally share a timeline position; test is vacuous")
	}
}

// TestOutOfOrderDependencyChains: on an out-of-order queue, commands start
// when their wait lists complete rather than when the previous command ends,
// so two independent dependency chains interleave on the modelled timeline.
func TestOutOfOrderDependencyChains(t *testing.T) {
	ctx := newTestContext(t)
	q := ctx.NewQueue()
	q.SetOutOfOrder(true)

	// Chain A: 2ms then 1ms. Chain B: 5ms. Enqueued interleaved.
	a1 := q.EnqueueHostWork("a1", 2e-3)
	b1 := q.EnqueueHostWork("b1", 5e-3)
	a2 := q.EnqueueHostWork("a2", 1e-3, a1)

	if a1.Start != 0 || b1.Start != 0 {
		t.Errorf("independent roots start at %g and %g, want 0", a1.Start, b1.Start)
	}
	if math.Abs(a2.Start-a1.End) > 1e-15 {
		t.Errorf("a2 starts at %g, want its dependency end %g", a2.Start, a1.End)
	}
	// Join waits on both chains.
	join := q.EnqueueHostWork("join", 1e-3, a2, b1)
	if math.Abs(join.Start-5e-3) > 1e-12 {
		t.Errorf("join starts at %g, want the slower chain end 5e-3", join.Start)
	}
	// Makespan is the overlapped 6ms, while the per-kind serial sum is 9ms.
	if got := q.MakespanSeconds(); math.Abs(got-6e-3) > 1e-12 {
		t.Errorf("MakespanSeconds = %g, want 6e-3", got)
	}
	if got := q.Profile().TotalSeconds(); math.Abs(got-9e-3) > 1e-12 {
		t.Errorf("serial TotalSeconds = %g, want 9e-3", got)
	}
}

// TestOutOfOrderTransfersAndKernels: device commands obey wait lists the same
// way — an upload with no deps starts at the origin even after host work was
// enqueued, and a kernel waiting on the upload starts at the upload's end.
func TestOutOfOrderTransfersAndKernels(t *testing.T) {
	ctx := newTestContext(t)
	q := ctx.NewQueue()
	q.SetOutOfOrder(true)
	buf := ctx.Device().NewBufferF32("data", 64)

	tree := q.EnqueueHostWork("tree", 3e-3)
	up, err := q.EnqueueWriteF32(buf, make([]float32, 64)) // independent of tree
	if err != nil {
		t.Fatal(err)
	}
	if up.Start != 0 {
		t.Errorf("independent upload starts at %g, want 0", up.Start)
	}
	k, err := q.EnqueueNDRange("k", gpusim.PerItem(func(wi *gpusim.Item) { wi.Flops(10) }),
		gpusim.LaunchParams{Global: 8, Local: 8}, up, tree)
	if err != nil {
		t.Fatal(err)
	}
	wantStart := up.End
	if tree.End > wantStart {
		wantStart = tree.End
	}
	if math.Abs(k.Start-wantStart) > 1e-15 {
		t.Errorf("kernel starts at %g, want max dep end %g", k.Start, wantStart)
	}
}

// TestWaitForUnfinishedEvent: WaitFor on an event that is still in flight at
// the caller's position advances the horizon to the event's end; waiting on
// an already finished event (or nil) is free.
func TestWaitForUnfinishedEvent(t *testing.T) {
	ctx := newTestContext(t)
	q := ctx.NewQueue()
	q.SetOutOfOrder(true)

	slow := q.EnqueueHostWork("slow", 8e-3)
	fast := q.EnqueueHostWork("fast", 1e-3)
	if !fast.DoneAt(1e-3) || fast.DoneAt(0.5e-3) {
		t.Errorf("DoneAt wrong around fast end: %+v", fast)
	}
	if got := q.WaitFor(fast); math.Abs(got-8e-3) > 1e-12 {
		// Horizon already includes slow's end; waiting on fast must not
		// rewind it.
		t.Errorf("WaitFor(finished) = %g, want horizon 8e-3", got)
	}
	if slow.DoneAt(q.Now() - 1e-6) {
		t.Error("slow reported done before its end")
	}
	if got := q.WaitFor(slow, nil); math.Abs(got-slow.End) > 1e-15 {
		t.Errorf("WaitFor(slow) = %g, want %g", got, slow.End)
	}
	if !slow.DoneAt(q.Now()) {
		t.Error("slow not done after WaitFor")
	}
}

// TestInOrderDepsCannotRewind: on the default in-order queue a wait list
// never moves a command earlier than the previous command's end, so existing
// in-order semantics are unchanged by passing deps.
func TestInOrderDepsCannotRewind(t *testing.T) {
	ctx := newTestContext(t)
	q := ctx.NewQueue()
	a := q.EnqueueHostWork("a", 2e-3)
	b := q.EnqueueHostWork("b", 3e-3)
	c := q.EnqueueHostWork("c", 1e-3, a) // dep older than queue position
	if math.Abs(c.Start-b.End) > 1e-15 {
		t.Errorf("in-order command with old dep starts at %g, want %g", c.Start, b.End)
	}
}

func TestQueueObserveEmitsMetricsAndSpans(t *testing.T) {
	ctx := newTestContext(t)
	q := ctx.NewQueue()
	o := obs.New()
	q.SetObs(o)
	buf := ctx.Device().NewBufferF32("data", 16)

	if _, err := q.EnqueueWriteF32(buf, make([]float32, 16)); err != nil {
		t.Fatal(err)
	}
	q.EnqueueHostWork("prep", 1e-3)
	if _, err := q.EnqueueNDRange("k", gpusim.PerItem(func(wi *gpusim.Item) { wi.Flops(10) }),
		gpusim.LaunchParams{Global: 8, Local: 8}); err != nil {
		t.Fatal(err)
	}

	snap := o.Metrics.Snapshot()
	if snap.Counters["cl.transfers"] != 1 || snap.Counters["cl.kernel.launches"] != 1 ||
		snap.Counters["cl.host.ops"] != 1 {
		t.Errorf("counters = %v", snap.Counters)
	}
	if snap.Counters["cl.transfer.bytes"] != 16*4 {
		t.Errorf("cl.transfer.bytes = %d", snap.Counters["cl.transfer.bytes"])
	}
	spans := o.Trace.Spans()
	if len(spans) != 3 {
		t.Fatalf("%d spans, want 3", len(spans))
	}
	for _, sp := range spans {
		if sp.Domain != obs.DomainModelled {
			t.Errorf("span %q on domain %d, want modelled", sp.Name, sp.Domain)
		}
	}
}
