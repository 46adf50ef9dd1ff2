// Package obs is the repository's telemetry layer: a concurrency-safe
// metrics registry (counters, gauges, fixed-bucket histograms) and a
// span-based tracer, both exportable — metrics as JSON or expvar, spans as
// Chrome/Perfetto trace events that merge with the gpusim device schedule
// into one timeline.
//
// The paper's evaluation is a *time breakdown* (kernel vs transfer vs
// host-side tree/walk build; Tables 1–3, Figures 4–5), so the pipeline's
// stages must be observable individually. This package makes that breakdown
// first-class instead of ad-hoc fields: every stage of the jw-parallel
// pipeline (IC generation, tree build, walk/list construction, uploads,
// kernel launches, downloads) opens a span, and every plan feeds the
// registry.
//
// Everything is nil-safe: a nil *Obs, *Tracer, *Registry, or *Span is a
// no-op, so instrumented code pays only a nil check when telemetry is
// disabled. The package deliberately depends on the standard library only.
package obs

import "context"

// Obs bundles a tracer and a metrics registry so instrumented code threads
// one pointer. The zero value and nil are valid (fully disabled).
type Obs struct {
	Trace   *Tracer
	Metrics *Registry
}

// New returns an Obs with a fresh tracer and registry.
func New() *Obs {
	return &Obs{Trace: NewTracer(), Metrics: NewRegistry()}
}

// Tracer returns the tracer, or nil when o is nil.
func (o *Obs) Tracer() *Tracer {
	if o == nil {
		return nil
	}
	return o.Trace
}

// Start opens a wall-clock span on the bundled tracer (no-op when o or the
// tracer is nil).
func (o *Obs) Start(name, category string) *Span {
	if o == nil {
		return nil
	}
	return o.Trace.Start(name, category)
}

// StartCtx opens a wall-clock span as a child of the trace context carried
// by ctx (no-op when o or the tracer is nil).
func (o *Obs) StartCtx(ctx context.Context, name, category string) *Span {
	if o == nil {
		return nil
	}
	return o.Trace.StartCtx(ctx, name, category)
}

// Counter returns the named counter (nil when disabled).
func (o *Obs) Counter(name string) *Counter {
	if o == nil {
		return nil
	}
	return o.Metrics.Counter(name)
}

// Gauge returns the named gauge (nil when disabled).
func (o *Obs) Gauge(name string) *Gauge {
	if o == nil {
		return nil
	}
	return o.Metrics.Gauge(name)
}

// Histogram returns the named histogram (nil when disabled).
func (o *Obs) Histogram(name string, bounds []float64) *Histogram {
	if o == nil {
		return nil
	}
	return o.Metrics.Histogram(name, bounds)
}

// Observable is implemented by components (plans, engines, queues) that can
// be wired to a telemetry bundle after construction.
type Observable interface {
	SetObs(*Obs)
}
