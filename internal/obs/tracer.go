package obs

import (
	"context"
	"sync"
	"time"
)

// Domain tells which clock a span's timestamps live on. The distinction
// matters because this repository runs a *simulated* device: host code is
// measured in real wall-clock time, while queue commands and kernel
// schedules carry modelled (cost-model) time. The trace exporter keeps the
// two on separate trace processes so neither timeline lies about the other.
type Domain int

// Span domains.
const (
	// DomainWall timestamps are microseconds of real time since the
	// tracer's epoch.
	DomainWall Domain = iota
	// DomainModelled timestamps are microseconds on the simulated device /
	// queue timeline.
	DomainModelled
)

// SpanRecord is one finished span.
type SpanRecord struct {
	Name     string
	Category string
	// Track groups spans onto one horizontal row ("thread") of the trace;
	// empty means the category is the track.
	Track   string
	Domain  Domain
	StartUS float64 // microseconds since the domain's origin
	DurUS   float64
	Args    map[string]any
	// TraceID/SpanID/ParentID link the span into a distributed trace (see
	// TraceContext); all empty when the span was recorded outside one.
	TraceID  string
	SpanID   string
	ParentID string
}

// Tracer collects spans. It is safe for concurrent use; a nil *Tracer is a
// no-op, so instrumentation costs a nil check when tracing is disabled.
//
// A tracer keeps every span unless SetWindow bounds it to the most recent
// ones, as a long-running service does so that its memory stays flat.
type Tracer struct {
	mu    sync.Mutex
	epoch time.Time
	// spans holds the finished spans in recording order, except that a
	// windowed tracer reuses it as a ring once window spans are held: the
	// oldest span then sits at head, and each new span overwrites it.
	spans  []SpanRecord
	window int
	head   int
}

// NewTracer returns a tracer whose wall-clock epoch is now.
func NewTracer() *Tracer {
	return &Tracer{epoch: time.Now()}
}

// Span is an open wall-clock span; End records it. A nil *Span (from a nil
// tracer) ignores every call.
type Span struct {
	t     *Tracer
	rec   SpanRecord
	start time.Time
}

// Start opens a wall-clock span. The returned span must be closed with End.
func (t *Tracer) Start(name, category string) *Span {
	if t == nil {
		return nil // before time.Now(): the disabled path must stay free
	}
	return t.StartAt(name, category, time.Now())
}

// StartAt opens a wall-clock span that began at the given instant — used to
// record intervals whose start predates the call, like a job's queue wait
// (the span is opened when the worker picks the job up, backdated to the
// submit time). The returned span must still be closed with End.
func (t *Tracer) StartAt(name, category string, start time.Time) *Span {
	if t == nil {
		return nil
	}
	return &Span{t: t, start: start, rec: SpanRecord{Name: name, Category: category, Domain: DomainWall}}
}

// StartCtx opens a wall-clock span as a child of the trace context carried by
// ctx (plain Start when ctx carries none).
func (t *Tracer) StartCtx(ctx context.Context, name, category string) *Span {
	return t.Start(name, category).ChildOf(TraceContextFrom(ctx))
}

// Track assigns the span to a named trace row and returns the span.
func (s *Span) Track(track string) *Span {
	if s != nil {
		s.rec.Track = track
	}
	return s
}

// Trace stamps the span as occupying tc itself: the span IS tc.SpanID within
// tc.TraceID. Use for a root span whose context children will link to; an
// invalid tc leaves the span unstamped.
func (s *Span) Trace(tc TraceContext) *Span {
	if s != nil && tc.Valid() {
		s.rec.TraceID = tc.TraceID
		s.rec.SpanID = tc.SpanID
	}
	return s
}

// ChildOf stamps the span as a fresh child of tc (same trace, new span id,
// parent link to tc.SpanID); an invalid tc leaves the span unstamped.
func (s *Span) ChildOf(tc TraceContext) *Span {
	if s != nil && tc.Valid() {
		s.rec.TraceID = tc.TraceID
		s.rec.ParentID = tc.SpanID
		s.rec.SpanID = NewSpanID()
	}
	return s
}

// Parent records an explicit parent span id (for root spans adopted from an
// inbound traceparent, whose parent lives in the caller's process).
func (s *Span) Parent(spanID string) *Span {
	if s != nil {
		s.rec.ParentID = spanID
	}
	return s
}

// TraceContext returns the span's own position in its trace — hand it to
// WithTraceContext so nested work records this span as its parent. Zero when
// the span is unstamped or nil.
func (s *Span) TraceContext() TraceContext {
	if s == nil {
		return TraceContext{}
	}
	return TraceContext{TraceID: s.rec.TraceID, SpanID: s.rec.SpanID}
}

// Arg attaches an attribute and returns the span.
func (s *Span) Arg(key string, value any) *Span {
	if s == nil {
		return nil
	}
	if s.rec.Args == nil {
		s.rec.Args = make(map[string]any, 4)
	}
	s.rec.Args[key] = value
	return s
}

// End closes the span and records it on the tracer.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := time.Now()
	s.rec.StartUS = float64(s.start.Sub(s.t.epoch)) / float64(time.Microsecond)
	s.rec.DurUS = float64(end.Sub(s.start)) / float64(time.Microsecond)
	s.t.add(s.rec)
}

// AddModelled records a span on the modelled timeline (start and duration in
// *seconds* of simulated time, matching the cl/gpusim cost-model units).
func (t *Tracer) AddModelled(name, category, track string, startSec, durSec float64, args map[string]any) {
	if t == nil {
		return
	}
	t.add(SpanRecord{
		Name:     name,
		Category: category,
		Track:    track,
		Domain:   DomainModelled,
		StartUS:  startSec * 1e6,
		DurUS:    durSec * 1e6,
		Args:     args,
	})
}

func (t *Tracer) add(rec SpanRecord) {
	t.mu.Lock()
	if t.window > 0 && len(t.spans) == t.window {
		t.spans[t.head] = rec
		t.head = (t.head + 1) % t.window
	} else {
		t.spans = append(t.spans, rec)
	}
	t.mu.Unlock()
}

// ordered returns a copy of the held spans, oldest first. Callers hold t.mu.
func (t *Tracer) ordered() []SpanRecord {
	out := make([]SpanRecord, 0, len(t.spans))
	out = append(out, t.spans[t.head:]...)
	return append(out, t.spans[:t.head]...)
}

// Spans returns a copy of the finished spans in recording order: every span,
// or the most recent ones under SetWindow.
func (t *Tracer) Spans() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ordered()
}

// SetWindow bounds the tracer to its n most recent spans: once it holds n,
// each new span replaces the oldest. Spans already held beyond the newest n
// are dropped. n <= 0 keeps every span, the default.
func (t *Tracer) SetWindow(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	spans := t.ordered()
	if n > 0 && len(spans) > n {
		spans = spans[len(spans)-n:]
	}
	t.spans, t.head, t.window = spans, 0, n
}

// Clone returns a tracer that holds a copy of t's spans, oldest first, on
// t's epoch, and keeps every span recorded on it: a snapshot that spans
// recorded on t later leave unchanged.
func (t *Tracer) Clone() *Tracer {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return &Tracer{epoch: t.epoch, spans: t.ordered()}
}

// Reset drops all recorded spans and restarts the wall-clock epoch. A window
// set by SetWindow stays.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans, t.head = nil, 0
	t.epoch = time.Now()
	t.mu.Unlock()
}
