package obs

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"strings"
	"sync/atomic"
	"time"
)

// TraceContext identifies a position in a distributed trace: the trace a
// piece of work belongs to and the span that directly encloses it. It is the
// correlation key the job service mints per job (or adopts from an inbound
// traceparent header) and threads — via context.Context — through queue
// waits, run attempts, integrator steps, engine evaluations, and the merged
// Chrome trace, so one ID joins every record a job produces.
//
// The wire form is the W3C traceparent format:
//
//	00-<32 hex trace id>-<16 hex span id>-01
//
// The zero TraceContext is "not part of a trace"; every consumer checks
// Valid before stamping.
type TraceContext struct {
	// TraceID is 32 lowercase hex characters shared by every span of the
	// trace; it must not be all zeros.
	TraceID string
	// SpanID is 16 lowercase hex characters identifying the current span;
	// children record it as their parent.
	SpanID string
}

// Valid reports whether tc carries a usable trace id and span id.
func (tc TraceContext) Valid() bool {
	return isHexID(tc.TraceID, 32) && isHexID(tc.SpanID, 16)
}

// isHexID checks for exactly n lowercase hex chars, not all zero.
func isHexID(s string, n int) bool {
	if len(s) != n {
		return false
	}
	nonzero := false
	for i := 0; i < n; i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
		if c != '0' {
			nonzero = true
		}
	}
	return nonzero
}

// idCounter breaks ties when the random source fails or stalls; mixing it in
// keeps IDs unique within the process regardless.
var idCounter atomic.Uint64

// randomHex returns n bytes of randomness as 2n hex chars, falling back to a
// time+counter mix if the system source errors (it effectively never does).
func randomHex(n int) string {
	buf := make([]byte, n)
	if _, err := rand.Read(buf); err != nil {
		seq := idCounter.Add(1)
		binary.LittleEndian.PutUint64(buf, uint64(time.Now().UnixNano()))
		if n >= 16 {
			binary.LittleEndian.PutUint64(buf[8:], seq)
		} else {
			buf[0] ^= byte(seq)
		}
	}
	s := hex.EncodeToString(buf)
	if !isHexID(s, 2*n) { // all-zero draw: invalid by spec, nudge it
		s = s[:len(s)-1] + "1"
	}
	return s
}

// NewTraceID mints a fresh 128-bit trace id.
func NewTraceID() string { return randomHex(16) }

// NewSpanID mints a fresh 64-bit span id.
func NewSpanID() string { return randomHex(8) }

// NewTraceContext mints a fresh trace with a root span.
func NewTraceContext() TraceContext {
	return TraceContext{TraceID: NewTraceID(), SpanID: NewSpanID()}
}

// Child returns a context for work nested under tc: same trace, fresh span.
// A child of an invalid context is a fresh trace (so callers can uncondition-
// ally chain).
func (tc TraceContext) Child() TraceContext {
	if !tc.Valid() {
		return NewTraceContext()
	}
	return TraceContext{TraceID: tc.TraceID, SpanID: NewSpanID()}
}

// ParseTraceParent parses a W3C traceparent header. Version 00 has exactly
// four fields. Any later version except ff may carry more after them (per
// spec, unknown versions are read as version 00 when the first four fields
// match). The trace-flags field must be two lowercase hex digits, and its
// value is ignored. ok is false for anything malformed, including all-zero
// ids.
func ParseTraceParent(s string) (tc TraceContext, ok bool) {
	s = strings.TrimSpace(s)
	parts := strings.Split(s, "-")
	if len(parts) < 4 {
		return TraceContext{}, false
	}
	ver, trace, span := parts[0], parts[1], parts[2]
	if !isHexByte(ver) || ver == "ff" || (ver == "00" && len(parts) != 4) || !isHexByte(parts[3]) {
		return TraceContext{}, false
	}
	tc = TraceContext{TraceID: trace, SpanID: span}
	if !tc.Valid() {
		return TraceContext{}, false
	}
	return tc, true
}

// isHexByte checks two lowercase hex chars (all-zero allowed: version 00).
func isHexByte(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return len(s) == 2
}

// ctxKey is the private context key type for TraceContext.
type ctxKey struct{}

// WithTraceContext returns a context carrying tc. An invalid tc returns ctx
// unchanged, so callers can thread unconditionally.
func WithTraceContext(ctx context.Context, tc TraceContext) context.Context {
	if !tc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, tc)
}

// TraceContextFrom extracts the carried trace context (zero value when the
// context carries none).
func TraceContextFrom(ctx context.Context) TraceContext {
	if ctx == nil {
		return TraceContext{}
	}
	tc, _ := ctx.Value(ctxKey{}).(TraceContext)
	return tc
}
