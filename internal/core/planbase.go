package core

import (
	"repro/internal/cl"
	"repro/internal/gpusim"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

// planBase is the host-side machinery every execution plan shares: the
// context, the plan's command queue, the telemetry bundle, grow-only device
// buffer management, and the graph runner that turns an executed
// pipeline.Schedule into a RunProfile. The plans differ only in their
// kernels and in the stage graphs they build; everything between "the host
// data is ready" and "the RunProfile is assembled" lives here.
type planBase struct {
	ctx   *cl.Context
	queue *cl.Queue
	obs   *obs.Obs
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

// run resets the plan's queue, executes the stage graph on it, and assembles
// the RunProfile: the per-kind profile from the queue's event log plus the
// executed stage schedule for the perf layer, both stamped with hostWall,
// the measured wall seconds of the host work that prepared the graph's
// inputs.
func (b *planBase) run(g *pipeline.Graph, plan string, n int, interactions int64, hostWall float64) (*RunProfile, error) {
	return b.runFlops(g, plan, n, interactions, interactionFlops(interactions), hostWall)
}

// runFlops is run with an explicit useful-flops total, for kernels whose
// per-interaction cost differs from the plain force kernel (the jerk path
// charges pp.FlopsPerJerkInteraction).
func (b *planBase) runFlops(g *pipeline.Graph, plan string, n int, interactions, flops int64, hostWall float64) (*RunProfile, error) {
	b.queue.Reset()
	sched, err := g.Execute(b.queue, b.obs)
	if err != nil {
		return nil, err
	}
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

// Stage constructors. Each closes over concrete host data and buffers — the
// plans build their graphs after the host-side prep, so every stage is fully
// bound at construction. The cl event names ("write <buf>", kernel names,
// "tree build") are unchanged from the pre-pipeline code so profiles and
// traces stay comparable across revisions.

// stageHostWork models CPU-side work (tree build, list construction) as one
// pipeline stage.
func stageHostWork(stage, event string, kind pipeline.Kind, seconds float64, deps ...string) pipeline.Stage {
	return pipeline.Stage{Name: stage, Kind: kind, Deps: deps,
		Run: func(ec *pipeline.ExecCtx) (*cl.Event, error) {
			return ec.Queue.EnqueueHostWork(event, seconds, ec.Deps...), nil
		}}
}

// stageUploadF32 uploads host float32 data to a device buffer.
func stageUploadF32(stage string, buf *gpusim.Buffer, src []float32, deps ...string) pipeline.Stage {
	return pipeline.Stage{Name: stage, Kind: pipeline.Upload, Deps: deps,
		Run: func(ec *pipeline.ExecCtx) (*cl.Event, error) {
			return ec.Queue.EnqueueWriteF32(buf, src, ec.Deps...)
		}}
}

// stageUploadI32 uploads host int32 data to a device buffer.
func stageUploadI32(stage string, buf *gpusim.Buffer, src []int32, deps ...string) pipeline.Stage {
	return pipeline.Stage{Name: stage, Kind: pipeline.Upload, Deps: deps,
		Run: func(ec *pipeline.ExecCtx) (*cl.Event, error) {
			return ec.Queue.EnqueueWriteI32(buf, src, ec.Deps...)
		}}
}

// stageKernel launches a force (or reduction) kernel.
func stageKernel(stage, kernel string, fn gpusim.KernelFunc, lp gpusim.LaunchParams, deps ...string) pipeline.Stage {
	return pipeline.Stage{Name: stage, Kind: pipeline.Kernel, Deps: deps,
		Run: func(ec *pipeline.ExecCtx) (*cl.Event, error) {
			return ec.Queue.EnqueueNDRange(kernel, fn, lp, ec.Deps...)
		}}
}

// stageDownloadF32 reads a device buffer back into host memory.
func stageDownloadF32(stage string, buf *gpusim.Buffer, dst []float32, deps ...string) pipeline.Stage {
	return pipeline.Stage{Name: stage, Kind: pipeline.Download, Deps: deps,
		Run: func(ec *pipeline.ExecCtx) (*cl.Event, error) {
			return ec.Queue.EnqueueReadF32(buf, dst, ec.Deps...)
		}}
}

// bhFrontStages returns the common front of a treecode graph — the modelled
// CPU tree build followed by the walk/list construction — which both BH
// plans (and the paper's pipelining argument) share. Downstream uploads
// depend on the "list" stage: no host data exists before it completes.
func bhFrontStages(d *bhHostData) []pipeline.Stage {
	return []pipeline.Stage{
		stageHostWork("tree", "tree build", pipeline.Tree, d.treeSeconds),
		stageHostWork("list", "walk/list build", pipeline.List, d.listSeconds, "tree"),
	}
}
