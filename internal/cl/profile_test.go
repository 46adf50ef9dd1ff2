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
	if q.now != 0 {
		t.Errorf("empty queue horizon = %g", q.now)
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
		for i, e := range q.events {
			if e.Start != prev {
				t.Errorf("queue %s event %d starts at %g, want %g", name, i, e.Start, prev)
			}
			if e.End < e.Start {
				t.Errorf("queue %s event %d ends before it starts: %+v", name, i, e)
			}
			prev = e.End
		}
		if q.now != prev {
			t.Errorf("queue %s horizon = %g, want %g", name, q.now, prev)
		}
	}
	if qa.now == qb.now {
		t.Error("independent queues coincidentally share a timeline position; test is vacuous")
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
