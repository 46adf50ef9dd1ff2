package obs

import (
	"bytes"
	"encoding/json"
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
