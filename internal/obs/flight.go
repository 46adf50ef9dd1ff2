package obs

import (
	"sync"
	"time"
)

// FlightEvent is one entry of a FlightRecorder: a timestamped lifecycle
// event or completed span belonging to one unit of work (a job).
type FlightEvent struct {
	// AtUnixMS is when the event happened (Unix milliseconds). Record fills
	// it when zero.
	AtUnixMS int64 `json:"at_unix_ms"`
	// Kind classifies the entry: "event" for a point-in-time marker, "span"
	// for a completed interval.
	Kind string `json:"kind"`
	// Name is the event or span name (submitted, engine-acquired, snapshot,
	// retry, quarantine, finished, ...).
	Name string `json:"name"`
	// DurMS is the interval length for Kind "span" (0 for events).
	DurMS float64 `json:"dur_ms,omitempty"`
	// Detail is free-form context (an error string, a reason).
	Detail string `json:"detail,omitempty"`
	// Attrs carries small structured attributes (engine id, step, seq).
	Attrs map[string]string `json:"attrs,omitempty"`
}

// FlightRecorder is a bounded ring buffer of the most recent FlightEvents
// for one unit of work — a black box that survives the work's failure, so a
// quarantined retry or watchdog halt arrives with its own last-K history
// attached instead of requiring a reproduction under tracing.
//
// All methods are safe for concurrent use; a nil *FlightRecorder is a no-op,
// matching the package's disabled-telemetry convention.
type FlightRecorder struct {
	mu    sync.Mutex
	buf   []FlightEvent
	next  int   // buf index the next event lands in
	total int64 // events ever recorded
}

// DefaultFlightCapacity is the ring size used when a caller asks for none.
const DefaultFlightCapacity = 64

// NewFlightRecorder returns a recorder retaining the last capacity events
// (DefaultFlightCapacity when capacity <= 0).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightCapacity
	}
	return &FlightRecorder{buf: make([]FlightEvent, 0, capacity)}
}

// Record appends ev, evicting the oldest entry when the ring is full. A zero
// AtUnixMS is filled with the current time.
func (r *FlightRecorder) Record(ev FlightEvent) {
	if r == nil {
		return
	}
	if ev.AtUnixMS == 0 {
		ev.AtUnixMS = time.Now().UnixMilli()
	}
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, ev)
	} else {
		r.buf[r.next] = ev
	}
	r.next = (r.next + 1) % cap(r.buf)
	r.total++
	r.mu.Unlock()
}

// Events returns the retained events oldest first (nil for a nil recorder).
func (r *FlightRecorder) Events() []FlightEvent {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]FlightEvent, 0, len(r.buf))
	if len(r.buf) == cap(r.buf) {
		out = append(out, r.buf[r.next:]...)
		out = append(out, r.buf[:r.next]...)
	} else {
		out = append(out, r.buf...)
	}
	return out
}

// Dropped returns how many events the ring has evicted.
func (r *FlightRecorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total - int64(len(r.buf))
}
