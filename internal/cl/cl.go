// Package cl is a small OpenCL-flavoured host API over the gpusim device:
// contexts, in-order command queues, buffer transfer commands and NDRange
// kernel enqueues, with event profiling timestamps.
//
// It exists so the benchmark harness can reproduce the paper's host-side
// structure exactly: Tables 2 and 3 distinguish *total* time (transfers +
// host work + kernels) from *running* time (kernels only), which is
// precisely the split this package's event categories provide.
package cl

import (
	"fmt"
	"io"

	"repro/internal/clc/analysis"
	"repro/internal/gpusim"
	"repro/internal/obs"
)

// Context owns a device.
type Context struct {
	dev *gpusim.Device
	obs *obs.Obs
}

// SetObs attaches a telemetry bundle to the context: program builds report
// kernel static-analysis results as clc.lint.* metrics.
func (c *Context) SetObs(o *obs.Obs) { c.obs = o }

// observeLint publishes one build's analyzer outcome.
func (c *Context) observeLint(r *analysis.Result) {
	if c.obs == nil || r == nil {
		return
	}
	c.obs.Counter("clc.lint.findings").Add(int64(len(r.Active())))
	c.obs.Counter("clc.lint.errors").Add(int64(len(r.Errors())))
	c.obs.Counter("clc.lint.suppressed").Add(int64(len(r.Suppressed())))
}

// NewContext creates a context on a freshly instantiated device with the
// given configuration.
func NewContext(cfg gpusim.DeviceConfig) (*Context, error) {
	dev, err := gpusim.NewDevice(cfg)
	if err != nil {
		return nil, err
	}
	return &Context{dev: dev}, nil
}

// Device returns the underlying simulated device.
func (c *Context) Device() *gpusim.Device { return c.dev }

// EventKind classifies a queue command for profiling roll-ups.
type EventKind string

// Event kinds.
const (
	KindKernel   EventKind = "kernel"
	KindTransfer EventKind = "transfer"
	KindHost     EventKind = "host"
)

// Event is a completed command with profiling timestamps on the queue's
// simulated timeline (seconds since queue creation).
type Event struct {
	Name  string
	Kind  EventKind
	Start float64
	End   float64
	// Bytes moved, for transfer events.
	Bytes int64
	// Result holds the launch details for kernel events.
	Result *gpusim.Result
}

// Seconds returns the event duration.
func (e *Event) Seconds() float64 { return e.End - e.Start }

// Queue is an in-order command queue with profiling enabled. Commands
// execute synchronously (functionally); their *modelled* durations advance
// the simulated timeline. Each command starts when the previous one ends.
type Queue struct {
	ctx    *Context
	now    float64
	events []*Event
	obs    *obs.Obs
}

// NewQueue creates an in-order command queue on the context.
func (c *Context) NewQueue() *Queue { return &Queue{ctx: c} }

// SetObs attaches a telemetry bundle: every subsequent command emits a
// modelled-timeline span and updates the registry's cl.* metrics. A nil
// bundle (the default) disables instrumentation at the cost of one nil
// check per command.
func (q *Queue) SetObs(o *obs.Obs) { q.obs = o }

func (q *Queue) push(name string, kind EventKind, dur float64, bytes int64, res *gpusim.Result) *Event {
	e := &Event{Name: name, Kind: kind, Start: q.now, End: q.now + dur, Bytes: bytes, Result: res}
	q.now = e.End
	q.events = append(q.events, e)
	if q.obs != nil {
		q.observe(e)
	}
	return e
}

// observe reports one completed command to the attached telemetry bundle.
func (q *Queue) observe(e *Event) {
	o := q.obs
	var args map[string]any
	switch e.Kind {
	case KindTransfer:
		o.Counter("cl.transfers").Inc()
		o.Counter("cl.transfer.bytes").Add(e.Bytes)
		o.Histogram("cl.transfer.ms", nil).Observe(e.Seconds() * 1e3)
		args = map[string]any{"bytes": e.Bytes}
	case KindKernel:
		o.Counter("cl.kernel.launches").Inc()
		o.Histogram("cl.kernel.ms", nil).Observe(e.Seconds() * 1e3)
		if r := e.Result; r != nil {
			t := &r.Timing
			o.Gauge("gpu.occupancy.wavefronts").Set(float64(t.OccupancyWavefronts))
			o.Gauge("gpu.alu.utilization").Set(t.ALUUtilization)
			o.Gauge("gpu.divergence.factor").Set(t.DivergenceFactor)
			o.Counter("gpu.groups.alu_bound").Add(int64(t.ALUBoundGroups))
			o.Counter("gpu.groups.mem_bound").Add(int64(t.MemBoundGroups))
			o.Counter("gpu.groups.lds_bound").Add(int64(t.LDSBoundGroups))
			args = map[string]any{
				"flops":               r.TotalFlops(),
				"groups":              len(r.Groups),
				"occupancyWavefronts": t.OccupancyWavefronts,
				"aluUtilization":      t.ALUUtilization,
				"divergenceFactor":    t.DivergenceFactor,
			}
		}
	case KindHost:
		o.Counter("cl.host.ops").Inc()
		o.Histogram("cl.host.ms", nil).Observe(e.Seconds() * 1e3)
	}
	o.Tracer().AddModelled(e.Name, string(e.Kind), string(e.Kind), e.Start, e.Seconds(), args)
}

// EnqueueWriteF32 copies host data into a device buffer, charging a PCIe
// transfer.
func (q *Queue) EnqueueWriteF32(b *gpusim.Buffer, src []float32) (*Event, error) {
	dst := b.HostF32()
	if len(src) > len(dst) {
		return nil, fmt.Errorf("cl: write of %d elements into %q of %d", len(src), b.Name(), len(dst))
	}
	copy(dst, src)
	bytes := int64(len(src)) * 4
	return q.push("write "+b.Name(), KindTransfer, q.ctx.dev.TransferSeconds(bytes), bytes, nil), nil
}

// EnqueueWriteI32 copies host int32 data into a device buffer.
func (q *Queue) EnqueueWriteI32(b *gpusim.Buffer, src []int32) (*Event, error) {
	dst := b.HostI32()
	if len(src) > len(dst) {
		return nil, fmt.Errorf("cl: write of %d elements into %q of %d", len(src), b.Name(), len(dst))
	}
	copy(dst, src)
	bytes := int64(len(src)) * 4
	return q.push("write "+b.Name(), KindTransfer, q.ctx.dev.TransferSeconds(bytes), bytes, nil), nil
}

// EnqueueReadF32 copies a device buffer back to host memory.
func (q *Queue) EnqueueReadF32(b *gpusim.Buffer, dst []float32) (*Event, error) {
	src := b.HostF32()
	if len(dst) > len(src) {
		return nil, fmt.Errorf("cl: read of %d elements from %q of %d", len(dst), b.Name(), len(src))
	}
	copy(dst, src[:len(dst)])
	bytes := int64(len(dst)) * 4
	return q.push("read "+b.Name(), KindTransfer, q.ctx.dev.TransferSeconds(bytes), bytes, nil), nil
}

// EnqueueNDRange launches a kernel and records a profiled kernel event.
func (q *Queue) EnqueueNDRange(name string, fn gpusim.KernelFunc, p gpusim.LaunchParams) (*Event, error) {
	res, err := q.ctx.dev.Launch(name, fn, p)
	if err != nil {
		return nil, err
	}
	return q.push(name, KindKernel, res.Timing.KernelSeconds, 0, res), nil
}

// EnqueueHostWork records modelled host-side work (tree build, list
// construction) on the timeline, so total-time accounting sees it.
func (q *Queue) EnqueueHostWork(name string, seconds float64) *Event {
	return q.push(name, KindHost, seconds, 0, nil)
}

// Reset clears the event log and rewinds the timeline; buffers keep their
// contents.
func (q *Queue) Reset() {
	q.now = 0
	q.events = nil
}

// Profile sums event durations by kind.
type Profile struct {
	KernelSeconds   float64
	TransferSeconds float64
	HostSeconds     float64
	TransferBytes   int64
	KernelFlops     int64
}

// TotalSeconds returns the full pipeline time, the paper's "total time",
// with host and device work serialised.
func (p Profile) TotalSeconds() float64 {
	return p.KernelSeconds + p.TransferSeconds + p.HostSeconds
}

// PipelinedSeconds returns the steady-state per-step time when the host and
// the device are double-buffered, per the paper's implementation note (4):
// while the GPU evaluates step t's forces, the CPU builds step t+1's tree
// and interaction lists. The slower side sets the pace; transfers ride with
// the device side (they must complete before the kernel).
func (p Profile) PipelinedSeconds() float64 {
	dev := p.KernelSeconds + p.TransferSeconds
	if p.HostSeconds > dev {
		return p.HostSeconds
	}
	return dev
}

// WriteMergedTrace writes one Chrome/Perfetto trace JSON containing the full
// picture of a run: the tracer's host-side wall-clock spans (IC generation,
// tree build, walk/list construction), its modelled queue pipeline spans
// (host work, transfers, kernel commands), and the per-CU device schedule of
// the given kernel launches — each on its own trace process, so the paper's
// pipelining argument (note 4: CPU builds step t+1's tree while the GPU
// integrates step t) can be inspected end to end in one timeline. A
// windowed tracer (obs.Tracer.SetWindow) contributes the spans it still
// holds, oldest first.
func WriteMergedTrace(w io.Writer, tr *obs.Tracer, cfg gpusim.DeviceConfig, results ...*gpusim.Result) error {
	events := tr.TraceEvents()
	meta := map[string]any{
		"device": cfg.Name,
	}
	// When the run was correlated (job service, traced CLI run), surface the
	// trace ids in the file metadata so a dump can be matched to its log
	// lines and job status without opening the event stream.
	if ids := traceIDs(events); len(ids) > 0 {
		meta["trace_id"] = ids[0]
		if len(ids) > 1 {
			meta["trace_ids"] = ids
		}
	}
	events = append(events, gpusim.TraceEvents(cfg, obs.PIDDeviceBase, results...)...)
	return obs.WriteChromeTrace(w, meta, events)
}

// traceIDs collects the distinct distributed-trace ids the span events
// carry, newest first: the trace of the last span recorded leads, since a
// windowed tracer may have dropped the start of older ones.
func traceIDs(events []obs.TraceEvent) []string {
	var ids []string
	seen := map[string]bool{}
	for i := len(events) - 1; i >= 0; i-- {
		if id, _ := events[i].Args["trace_id"].(string); id != "" && !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	return ids
}

// Profile aggregates the queue's event log.
func (q *Queue) Profile() Profile {
	var p Profile
	for _, e := range q.events {
		switch e.Kind {
		case KindKernel:
			p.KernelSeconds += e.Seconds()
			if e.Result != nil {
				p.KernelFlops += e.Result.TotalFlops()
			}
		case KindTransfer:
			p.TransferSeconds += e.Seconds()
			p.TransferBytes += e.Bytes
		case KindHost:
			p.HostSeconds += e.Seconds()
		}
	}
	return p
}
