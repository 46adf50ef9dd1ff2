package core

import (
	"fmt"

	"repro/internal/cl"
	"repro/internal/gpusim"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

// planBase is the host-side machinery every execution plan shares: the
// context, the plan's in-order command queue, the telemetry bundle,
// grow-only device buffer management, and the recorder of the evaluation in
// progress. A plan evaluates forces by calling begin, enqueueing its
// commands in order through the helpers below, and calling finish, which
// turns the recorded pipeline.Schedule into a RunProfile. The plans differ
// only in their kernels and in the commands they enqueue.
type planBase struct {
	ctx   *cl.Context
	queue *cl.Queue
	obs   *obs.Obs

	// sched and err record the evaluation in progress: one span per
	// command, and the first command's error, after which the helpers
	// enqueue nothing more.
	sched *pipeline.Schedule
	err   error
}

func newPlanBase(ctx *cl.Context) planBase {
	return planBase{ctx: ctx, queue: ctx.NewQueue()}
}

func (b *planBase) setObs(o *obs.Obs) {
	b.obs = o
	b.queue.SetObs(o)
}

// clContext exposes the plan's context so the engine can build auxiliary
// units (the Hermite jerk unit) on the same simulated device.
func (b *planBase) clContext() *cl.Context { return b.ctx }

// ensure (re)allocates one of the plan's device buffers; see ensureBuffer.
func (b *planBase) ensure(name string, buf **gpusim.Buffer, n int, isFloat bool) {
	ensureBuffer(b.ctx.Device(), name, buf, n, isFloat)
}

// ensureBuffer (re)allocates a device buffer on dev, growing only: modelled
// transfer cost is charged per element written, not per buffer size, so an
// oversized buffer never changes the timing.
func ensureBuffer(dev *gpusim.Device, name string, buf **gpusim.Buffer, n int, isFloat bool) {
	if *buf != nil && (*buf).Len() >= n && (*buf).IsFloat() == isFloat {
		return
	}
	if isFloat {
		*buf = dev.NewBufferF32(name, n)
	} else {
		*buf = dev.NewBufferI32(name, n)
	}
}

// begin starts an evaluation: it rewinds the queue's timeline and opens an
// empty schedule.
func (b *planBase) begin() {
	b.queue.Reset()
	b.sched = &pipeline.Schedule{}
	b.err = nil
}

// record appends a command's span to the evaluation's schedule, or keeps
// its error.
func (b *planBase) record(kind pipeline.Kind, ev *cl.Event, err error) {
	if err != nil {
		b.err = err
		return
	}
	b.sched.Spans = append(b.sched.Spans, pipeline.StageSpan{Kind: kind, Start: ev.Start, End: ev.End, Event: ev})
}

// writeF32 uploads host float32 data to a device buffer.
func (b *planBase) writeF32(buf *gpusim.Buffer, src []float32) {
	if b.err == nil {
		ev, err := b.queue.EnqueueWriteF32(buf, src)
		b.record(pipeline.Upload, ev, err)
	}
}

// writeI32 uploads host int32 data to a device buffer.
func (b *planBase) writeI32(buf *gpusim.Buffer, src []int32) {
	if b.err == nil {
		ev, err := b.queue.EnqueueWriteI32(buf, src)
		b.record(pipeline.Upload, ev, err)
	}
}

// launch enqueues a kernel.
func (b *planBase) launch(name string, fn gpusim.KernelFunc, lp gpusim.LaunchParams) {
	if b.err == nil {
		ev, err := b.queue.EnqueueNDRange(name, fn, lp)
		b.record(pipeline.Kernel, ev, err)
	}
}

// readF32 reads a device buffer back into host memory.
func (b *planBase) readF32(buf *gpusim.Buffer, dst []float32) {
	if b.err == nil {
		ev, err := b.queue.EnqueueReadF32(buf, dst)
		b.record(pipeline.Download, ev, err)
	}
}

// hostFront enqueues the common front of a treecode evaluation, its first
// commands: the modelled CPU tree build followed by the walk/list
// construction, which both BH plans (and the paper's pipelining argument)
// share. Host work cannot fail.
func (b *planBase) hostFront(d *bhHostData) {
	b.record(pipeline.Tree, b.queue.EnqueueHostWork("tree build", d.treeSeconds), nil)
	b.record(pipeline.List, b.queue.EnqueueHostWork("walk/list build", d.listSeconds), nil)
}

// finish ends the evaluation and assembles its RunProfile: the per-kind
// profile from the queue's event log plus the recorded schedule for the
// perf layer, both stamped with hostWall, the measured wall seconds of the
// host work that prepared the commands' inputs. It returns the first
// command's error, if any.
func (b *planBase) finish(plan string, n int, interactions int64, hostWall float64) (*RunProfile, error) {
	return b.finishFlops(plan, n, interactions, interactionFlops(interactions), hostWall)
}

// finishFlops is finish with an explicit useful-flops total, for kernels
// whose per-interaction cost differs from the plain force kernel (the jerk
// path charges pp.FlopsPerJerkInteraction).
func (b *planBase) finishFlops(plan string, n int, interactions, flops int64, hostWall float64) (*RunProfile, error) {
	if b.err != nil {
		return nil, fmt.Errorf("core: %s: %w", plan, b.err)
	}
	sched := b.sched
	sched.HostWallSeconds = hostWall
	rp := &RunProfile{
		Plan:             plan,
		N:                n,
		Interactions:     interactions,
		Flops:            flops,
		Profile:          b.queue.Profile(),
		Launches:         sched.Launches(),
		Schedule:         sched,
		HostBuildSeconds: hostWall,
	}
	observeRun(b.obs, rp)
	return rp, nil
}
