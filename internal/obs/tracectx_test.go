package obs

import (
	"context"
	"strings"
	"testing"
)

func TestNewTraceContextValidAndDistinct(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		tc := NewTraceContext()
		if !tc.Valid() {
			t.Fatalf("NewTraceContext() = %+v, not valid", tc)
		}
		if len(tc.TraceID) != 32 || len(tc.SpanID) != 16 {
			t.Fatalf("id lengths: trace %d span %d, want 32/16", len(tc.TraceID), len(tc.SpanID))
		}
		if seen[tc.TraceID] {
			t.Fatalf("duplicate trace id %s", tc.TraceID)
		}
		seen[tc.TraceID] = true
	}
}

func TestTraceParentRoundTrip(t *testing.T) {
	tc := NewTraceContext()
	hdr := "00-" + tc.TraceID + "-" + tc.SpanID + "-01"
	got, ok := ParseTraceParent(hdr)
	if !ok {
		t.Fatalf("ParseTraceParent(%q) failed", hdr)
	}
	if got != tc {
		t.Fatalf("round trip: got %+v, want %+v", got, tc)
	}
}

func TestParseTraceParentRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"garbage",
		"00-abc-def-01", // too short
		"00-" + strings.Repeat("0", 32) + "-" + strings.Repeat("a", 16) + "-01", // all-zero trace
		"00-" + strings.Repeat("a", 32) + "-" + strings.Repeat("0", 16) + "-01", // all-zero span
		"ff-" + strings.Repeat("a", 32) + "-" + strings.Repeat("b", 16) + "-01", // version ff
		"00-" + strings.Repeat("A", 32) + "-" + strings.Repeat("b", 16) + "-01", // uppercase hex
		"0-" + strings.Repeat("a", 32) + "-" + strings.Repeat("b", 16) + "-01",  // short version

		// Version 00 has exactly four fields, with two lowercase hex digits
		// of flags.
		"00-" + strings.Repeat("a", 32) + "-" + strings.Repeat("b", 16) + "-01-extra", // fifth field in version 00
		"00-" + strings.Repeat("a", 32) + "-" + strings.Repeat("b", 16) + "-zz",       // non-hex flags
		"00-" + strings.Repeat("a", 32) + "-" + strings.Repeat("b", 16) + "-",         // empty flags
		"00-" + strings.Repeat("a", 32) + "-" + strings.Repeat("b", 16) + "-0001",     // 4-character flags
	}
	for _, s := range bad {
		if tc, ok := ParseTraceParent(s); ok {
			t.Errorf("ParseTraceParent(%q) = %+v, want reject", s, tc)
		}
	}
	// Future versions with a well-formed tail parse, extra fields included
	// (per W3C spec).
	for _, good := range []string{
		"01-" + strings.Repeat("a", 32) + "-" + strings.Repeat("b", 16) + "-00",
		"01-" + strings.Repeat("a", 32) + "-" + strings.Repeat("b", 16) + "-00-extra",
	} {
		if _, ok := ParseTraceParent(good); !ok {
			t.Errorf("ParseTraceParent(%q) rejected a future-version header", good)
		}
	}
}

// FuzzParseTraceParent checks that the parser never panics and that every
// header it accepts yields a usable trace context. Seeds live in
// testdata/fuzz/FuzzParseTraceParent.
func FuzzParseTraceParent(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		tc, ok := ParseTraceParent(s)
		if ok && !tc.Valid() {
			t.Fatalf("ParseTraceParent(%q) = %+v, ok, but not Valid", s, tc)
		}
		if !ok && tc != (TraceContext{}) {
			t.Fatalf("ParseTraceParent(%q) rejected the header but returned %+v", s, tc)
		}
	})
}

func TestChildKeepsTraceChangesSpan(t *testing.T) {
	root := NewTraceContext()
	child := root.Child()
	if child.TraceID != root.TraceID {
		t.Fatalf("child trace id %s != root %s", child.TraceID, root.TraceID)
	}
	if child.SpanID == root.SpanID {
		t.Fatal("child span id equals root span id")
	}
	if !child.Valid() {
		t.Fatalf("child %+v not valid", child)
	}
	// Child of an invalid context mints a fresh trace.
	fresh := (TraceContext{}).Child()
	if !fresh.Valid() {
		t.Fatalf("Child of zero context = %+v, want a fresh valid trace", fresh)
	}
}

func TestContextCarry(t *testing.T) {
	tc := NewTraceContext()
	ctx := WithTraceContext(context.Background(), tc)
	if got := TraceContextFrom(ctx); got != tc {
		t.Fatalf("TraceContextFrom = %+v, want %+v", got, tc)
	}
	// Invalid contexts are not stored.
	ctx2 := WithTraceContext(context.Background(), TraceContext{TraceID: "zz"})
	if got := TraceContextFrom(ctx2); got.Valid() {
		t.Fatalf("invalid trace context was stored: %+v", got)
	}
	if got := TraceContextFrom(nil); got.Valid() { //nolint:staticcheck // nil ctx is the documented degenerate case
		t.Fatalf("nil ctx yielded %+v", got)
	}
}

func TestSpanTraceStamping(t *testing.T) {
	tr := NewTracer()
	root := NewTraceContext()

	// Root span occupies the context itself.
	tr.Start("job", "serve").Trace(root).End()
	// Child span links under it.
	tr.Start("step", "sim").ChildOf(root).End()
	// StartCtx reads the context.
	ctx := WithTraceContext(context.Background(), root)
	tr.StartCtx(ctx, "accel", "engine").End()
	// Unstamped span stays clean.
	tr.Start("plain", "host").End()

	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	if spans[0].TraceID != root.TraceID || spans[0].SpanID != root.SpanID {
		t.Fatalf("root span ids %+v, want trace %s span %s", spans[0], root.TraceID, root.SpanID)
	}
	for _, i := range []int{1, 2} {
		sp := spans[i]
		if sp.TraceID != root.TraceID {
			t.Fatalf("span %d trace id %q, want %q", i, sp.TraceID, root.TraceID)
		}
		if sp.ParentID != root.SpanID {
			t.Fatalf("span %d parent %q, want %q", i, sp.ParentID, root.SpanID)
		}
		if sp.SpanID == root.SpanID || !isHexID(sp.SpanID, 16) {
			t.Fatalf("span %d span id %q not a fresh valid id", i, sp.SpanID)
		}
	}
	if spans[3].TraceID != "" || spans[3].SpanID != "" || spans[3].ParentID != "" {
		t.Fatalf("unstamped span carries trace ids: %+v", spans[3])
	}
}

func TestTraceEventsCarryTraceArgs(t *testing.T) {
	tr := NewTracer()
	root := NewTraceContext()
	tr.Start("step", "sim").ChildOf(root).Arg("step", 3).End()
	events := tr.TraceEvents()
	var found bool
	for _, ev := range events {
		if ev.Phase != "X" {
			continue
		}
		found = true
		if got := ev.Args["trace_id"]; got != root.TraceID {
			t.Fatalf("trace_id arg = %v, want %s", got, root.TraceID)
		}
		if got := ev.Args["parent_id"]; got != root.SpanID {
			t.Fatalf("parent_id arg = %v, want %s", got, root.SpanID)
		}
		if _, ok := ev.Args["span_id"]; !ok {
			t.Fatal("span_id arg missing")
		}
		if got := ev.Args["step"]; got != 3 {
			t.Fatalf("original arg lost: step = %v", got)
		}
	}
	if !found {
		t.Fatal("no X event emitted")
	}
	// The span's own Args map must not have been mutated by the export.
	if args := tr.Spans()[0].Args; len(args) != 1 {
		t.Fatalf("span args mutated by TraceEvents: %v", args)
	}
}

func TestStartAtBackdatesSpan(t *testing.T) {
	tr := NewTracer()
	sp := tr.StartAt("queue-wait", "serve", tr.epoch)
	sp.End()
	rec := tr.Spans()[0]
	if rec.StartUS != 0 {
		t.Fatalf("backdated span starts at %f us, want 0 (the epoch)", rec.StartUS)
	}
	if rec.DurUS <= 0 {
		t.Fatalf("backdated span duration %f us, want > 0", rec.DurUS)
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	tr.StartCtx(context.Background(), "x", "y").ChildOf(NewTraceContext()).Trace(NewTraceContext()).Parent("p").End()
	var sp *Span
	if tc := sp.TraceContext(); tc.Valid() {
		t.Fatalf("nil span trace context %+v", tc)
	}
}
