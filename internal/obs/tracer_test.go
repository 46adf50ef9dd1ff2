package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	sp := tr.Start("x", "cat")
	sp.Track("t").Arg("k", 1)
	sp.End()
	tr.AddModelled("y", "cat", "t", 0, 1, nil)
	if got := tr.Spans(); got != nil {
		t.Fatalf("nil tracer spans = %v, want nil", got)
	}
	if got := tr.TraceEvents(); got != nil {
		t.Fatalf("nil tracer events = %v, want nil", got)
	}
	tr.Reset()

	var o *Obs
	o.Start("x", "cat").End()
	o.Counter("c").Inc()
	if o.Tracer() != nil {
		t.Fatal("nil Obs must expose nil components")
	}
}

func TestTracerWallAndModelledSpans(t *testing.T) {
	tr := NewTracer()
	sp := tr.Start("tree build", "host").Track("pipeline").Arg("n", 4096)
	sp.End()
	tr.AddModelled("write posm", "transfer", "queue", 0.001, 0.002, map[string]any{"bytes": 64})

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	w := spans[0]
	if w.Domain != DomainWall || w.Name != "tree build" || w.Track != "pipeline" {
		t.Fatalf("wall span mismatch: %+v", w)
	}
	if w.DurUS < 0 || w.StartUS < 0 {
		t.Fatalf("wall span has negative times: %+v", w)
	}
	if w.Args["n"] != 4096 {
		t.Fatalf("wall span args = %v", w.Args)
	}
	m := spans[1]
	if m.Domain != DomainModelled || m.StartUS != 1000 || m.DurUS != 2000 {
		t.Fatalf("modelled span mismatch: %+v", m)
	}

	tr.Reset()
	if len(tr.Spans()) != 0 {
		t.Fatal("Reset did not clear spans")
	}
}

func TestTracerTraceEventsMetadataAndPIDs(t *testing.T) {
	tr := NewTracer()
	tr.Start("ic", "host").End()
	tr.Start("tree build", "host").End()
	tr.AddModelled("kernel", "kernel", "queue", 0, 1, nil)

	events := tr.TraceEvents()
	var wallX, modelledX, procMeta, threadMeta int
	for _, ev := range events {
		switch ev.Phase {
		case "X":
			switch ev.PID {
			case PIDHost:
				wallX++
			case PIDPipeline:
				modelledX++
			default:
				t.Fatalf("span on unexpected pid %d: %+v", ev.PID, ev)
			}
		case "M":
			switch ev.Name {
			case "process_name":
				procMeta++
			case "thread_name":
				threadMeta++
			}
		}
	}
	if wallX != 2 || modelledX != 1 {
		t.Fatalf("wall/modelled X events = %d/%d, want 2/1", wallX, modelledX)
	}
	if procMeta != 2 {
		t.Fatalf("process_name events = %d, want 2 (host + pipeline)", procMeta)
	}
	if threadMeta < 2 {
		t.Fatalf("thread_name events = %d, want >= 2", threadMeta)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	tr := NewTracer()
	tr.Start("walk build", "host").End()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, map[string]any{"device": "test"}, tr.TraceEvents()); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var doc struct {
		TraceEvents []TraceEvent   `json:"traceEvents"`
		OtherData   map[string]any `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events written")
	}
	if doc.OtherData["device"] != "test" {
		t.Fatalf("otherData = %v", doc.OtherData)
	}

	// Empty event sets still produce a decodable document with an array.
	buf.Reset()
	if err := WriteChromeTrace(&buf, nil, nil); err != nil {
		t.Fatalf("WriteChromeTrace(empty): %v", err)
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("decode empty: %v", err)
	}
	if doc.TraceEvents == nil {
		t.Fatal("traceEvents must be an array, not null")
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr.Start("s", "host").Arg("g", g).End()
				tr.AddModelled("m", "kernel", "q", float64(i), 1, nil)
				_ = tr.Spans()
			}
		}(g)
	}
	wg.Wait()
	if got := len(tr.Spans()); got != 8*400 {
		t.Fatalf("got %d spans, want %d", got, 8*400)
	}
}

// spanNames returns the names of the tracer's spans, oldest first.
func spanNames(tr *Tracer) []string {
	var names []string
	for _, sp := range tr.Spans() {
		names = append(names, sp.Name)
	}
	return names
}

func TestTracerWindow(t *testing.T) {
	tr := NewTracer()
	for _, name := range []string{"a", "b", "c", "d", "e"} {
		tr.Start(name, "host").End()
	}
	// Narrowing keeps the newest spans; each new span then drops the oldest.
	tr.SetWindow(3)
	if got := fmt.Sprint(spanNames(tr)); got != "[c d e]" {
		t.Fatalf("after SetWindow(3): %s, want [c d e]", got)
	}
	for _, name := range []string{"f", "g", "h", "i"} {
		tr.AddModelled(name, "kernel", "q", 0, 1, nil)
	}
	if got := fmt.Sprint(spanNames(tr)); got != "[g h i]" {
		t.Fatalf("window of 3 after 4 more spans: %s, want [g h i]", got)
	}
	var events []string
	for _, ev := range tr.TraceEvents() {
		if ev.Phase == "X" {
			events = append(events, ev.Name)
		}
	}
	if got := fmt.Sprint(events); got != "[g h i]" {
		t.Fatalf("trace events %s, want [g h i] oldest first", got)
	}

	// A clone is a snapshot: it keeps every span recorded on it, and spans
	// recorded on the original later do not reach it.
	c := tr.Clone()
	c.Start("j", "host").End()
	tr.Start("k", "host").End()
	if got := fmt.Sprint(spanNames(c)); got != "[g h i j]" {
		t.Fatalf("clone: %s, want [g h i j]", got)
	}
	if got := fmt.Sprint(spanNames(tr)); got != "[h i k]" {
		t.Fatalf("original after clone: %s, want [h i k]", got)
	}

	// Reset keeps the window; widening keeps what is held.
	tr.Reset()
	for _, name := range []string{"l", "m", "n", "o"} {
		tr.Start(name, "host").End()
	}
	tr.SetWindow(0)
	tr.Start("p", "host").End()
	if got := fmt.Sprint(spanNames(tr)); got != "[m n o p]" {
		t.Fatalf("after Reset, 4 spans and SetWindow(0): %s, want [m n o p]", got)
	}
}

// TestTracerWindowConcurrent records spans on a windowed tracer and
// snapshots it from many goroutines at once, as the job service's engine
// slots and HTTP handlers do. Every snapshot must hold at most the window,
// and each writer's spans in it must be consecutive and in order.
func TestTracerWindowConcurrent(t *testing.T) {
	const writers, per, window = 8, 500, 64
	tr := NewTracer()
	tr.SetWindow(window)
	check := func(spans []SpanRecord) error {
		if len(spans) > window {
			return fmt.Errorf("snapshot holds %d spans, window %d", len(spans), window)
		}
		last := map[any]int{}
		for _, sp := range spans {
			g, seq := sp.Args["g"], sp.Args["seq"].(int)
			if prev, ok := last[g]; ok && seq != prev+1 {
				return fmt.Errorf("writer %v: span %d follows %d", g, seq, prev)
			}
			last[g] = seq
		}
		return nil
	}
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tr.Start("s", "host").Arg("g", g).Arg("seq", i).End()
				if i%50 == 0 {
					if err := check(tr.Spans()); err != nil {
						errs <- err
						return
					}
					_ = tr.TraceEvents()
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	spans := tr.Spans()
	if len(spans) != window {
		t.Fatalf("holds %d spans after %d, want the window %d", len(spans), writers*per, window)
	}
	if err := check(spans); err != nil {
		t.Fatal(err)
	}
}
