package cl

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/gpusim"
	"repro/internal/obs"
)

// decodeTrace parses a merged-trace document written by WriteMergedTrace.
func decodeTrace(t *testing.T, raw []byte) (events []obs.TraceEvent, otherData map[string]any) {
	t.Helper()
	var doc struct {
		TraceEvents []obs.TraceEvent `json:"traceEvents"`
		OtherData   map[string]any   `json:"otherData"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("merged trace is not valid JSON: %v\n%s", err, raw)
	}
	return doc.TraceEvents, doc.OtherData
}

func launchOnce(t *testing.T, q *Queue, name string, n int) *gpusim.Result {
	t.Helper()
	buf := q.ctx.Device().NewBufferF32(name+".buf", n)
	ev, err := q.EnqueueNDRange(name, gpusim.PerItem(func(wi *gpusim.Item) {
		wi.LoadGlobalF32(buf, wi.GlobalID()%n)
		wi.Flops(4)
	}), gpusim.LaunchParams{Global: n, Local: 8})
	if err != nil {
		t.Fatal(err)
	}
	return ev.Result
}

// TestWriteMergedTraceEmpty locks the degenerate cases: a tracer with no
// spans and no kernel results must still produce a valid, loadable document
// with an empty (not null) traceEvents array.
func TestWriteMergedTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	o := obs.New()
	if err := WriteMergedTrace(&buf, o.Trace, gpusim.TestDevice()); err != nil {
		t.Fatalf("WriteMergedTrace(empty): %v", err)
	}
	events, other := decodeTrace(t, buf.Bytes())
	if events == nil {
		t.Error("traceEvents is null, want []")
	}
	if len(events) != 0 {
		t.Errorf("empty bundle produced %d events", len(events))
	}
	if other["device"] != "test-device" {
		t.Errorf("otherData device = %v", other["device"])
	}
}

// TestWriteMergedTraceNilTracer: observers are optional everywhere else in
// the stack (obs is nil-safe), so the trace writer must accept a nil tracer.
func TestWriteMergedTraceNilTracer(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMergedTrace(&buf, nil, gpusim.TestDevice()); err != nil {
		t.Fatalf("WriteMergedTrace(nil tracer): %v", err)
	}
	events, _ := decodeTrace(t, buf.Bytes())
	if len(events) != 0 {
		t.Errorf("nil tracer produced %d events", len(events))
	}
}

// TestWriteMergedTraceLeadsWithNewestTrace: the metadata's trace_id names
// the trace of the last span recorded, and trace_ids lists every trace the
// spans carry, newest first.
func TestWriteMergedTraceLeadsWithNewestTrace(t *testing.T) {
	tr := obs.NewTracer()
	older, newer := obs.NewTraceContext(), obs.NewTraceContext()
	tr.Start("job 1", "serve").Trace(older).End()
	tr.Start("untraced", "host").End()
	tr.Start("job 2", "serve").Trace(newer).End()
	tr.Start("step", "sim").ChildOf(older).End()
	tr.Start("step", "sim").ChildOf(newer).End()
	var buf bytes.Buffer
	if err := WriteMergedTrace(&buf, tr, gpusim.TestDevice()); err != nil {
		t.Fatal(err)
	}
	_, other := decodeTrace(t, buf.Bytes())
	if other["trace_id"] != newer.TraceID {
		t.Errorf("otherData trace_id = %v, want the newest trace %s", other["trace_id"], newer.TraceID)
	}
	ids, _ := other["trace_ids"].([]any)
	if len(ids) != 2 || ids[0] != newer.TraceID || ids[1] != older.TraceID {
		t.Errorf("otherData trace_ids = %v, want [%s %s]", other["trace_ids"], newer.TraceID, older.TraceID)
	}
}

// TestWriteMergedTraceOverlappedSpans: two queues observed by one bundle
// (as the devices of jw-parallel-xK are) produce modelled pipeline spans
// that genuinely overlap on the timeline, and the merged trace preserves
// those overlapping intervals instead of serialising them.
func TestWriteMergedTraceOverlappedSpans(t *testing.T) {
	ctx := newTestContext(t)
	o := obs.New()
	hq, q := ctx.NewQueue(), ctx.NewQueue()
	hq.SetObs(o)
	q.SetObs(o)

	// Two independent chains: tree build overlapping a device-bound
	// upload+kernel chain, as in the paper's note-4 pipelining.
	tree := hq.EnqueueHostWork("tree build", 4e-3)
	buf := ctx.Device().NewBufferF32("posm", 64)
	if _, err := q.EnqueueWriteF32(buf, make([]float32, 64)); err != nil {
		t.Fatal(err)
	}
	ev, err := q.EnqueueNDRange("force", gpusim.PerItem(func(wi *gpusim.Item) { wi.Flops(4) }),
		gpusim.LaunchParams{Global: 16, Local: 8})
	if err != nil {
		t.Fatal(err)
	}
	if ev.Start >= tree.End {
		t.Fatalf("kernel [%g,%g] does not overlap tree [%g,%g]; test is vacuous",
			ev.Start, ev.End, tree.Start, tree.End)
	}

	var buf2 bytes.Buffer
	if err := WriteMergedTrace(&buf2, o.Trace, ctx.Device().Config, ev.Result); err != nil {
		t.Fatal(err)
	}
	events, _ := decodeTrace(t, buf2.Bytes())

	// Find the tree and kernel slices on the pipeline PID and check their
	// microsecond intervals still overlap.
	type iv struct{ start, end float64 }
	slices := map[string]iv{}
	for _, e := range events {
		if e.Phase == "X" && e.PID == obs.PIDPipeline {
			slices[e.Name] = iv{e.TS, e.TS + e.Dur}
		}
	}
	tr, ok1 := slices["tree build"]
	fk, ok2 := slices["force"]
	if !ok1 || !ok2 {
		t.Fatalf("missing pipeline slices: %v", slices)
	}
	if fk.start >= tr.end || tr.start >= fk.end {
		t.Errorf("trace serialised the overlap: tree [%g,%g]us, force [%g,%g]us",
			tr.start, tr.end, fk.start, fk.end)
	}
}

// TestWriteMergedTraceMultiKernel checks the merged layout for a realistic
// bundle: host wall spans and modelled pipeline spans from an observed
// queue, plus two kernel launches that must land on consecutive device PIDs
// with process_name metadata naming each kernel.
func TestWriteMergedTraceMultiKernel(t *testing.T) {
	ctx := newTestContext(t)
	o := obs.New()
	q := ctx.NewQueue()
	q.SetObs(o)

	sp := o.Start("setup", "host")
	r1 := launchOnce(t, q, "alpha.force", 32)
	r2 := launchOnce(t, q, "beta.reduce", 16)
	sp.End()

	var buf bytes.Buffer
	if err := WriteMergedTrace(&buf, o.Trace, ctx.Device().Config, r1, r2); err != nil {
		t.Fatal(err)
	}
	events, _ := decodeTrace(t, buf.Bytes())

	var hostSpans, pipelineSpans int
	devicePIDs := map[int]bool{}
	processNames := map[int]string{}
	for _, ev := range events {
		switch {
		case ev.Phase == "M" && ev.Name == "process_name" && ev.PID >= obs.PIDDeviceBase:
			processNames[ev.PID], _ = ev.Args["name"].(string)
		case ev.Phase != "X":
		case ev.PID == obs.PIDHost:
			hostSpans++
		case ev.PID == obs.PIDPipeline:
			pipelineSpans++
		case ev.PID >= obs.PIDDeviceBase:
			devicePIDs[ev.PID] = true
		}
	}
	if hostSpans == 0 {
		t.Error("no host wall spans in merged trace")
	}
	if pipelineSpans == 0 {
		t.Error("no modelled pipeline spans in merged trace")
	}
	want := map[int]bool{obs.PIDDeviceBase: true, obs.PIDDeviceBase + 1: true}
	for pid := range want {
		if !devicePIDs[pid] {
			t.Errorf("no device slices on pid %d (got %v)", pid, devicePIDs)
		}
	}
	if len(devicePIDs) != 2 {
		t.Errorf("device slices on %d PIDs, want 2: %v", len(devicePIDs), devicePIDs)
	}
	if n := processNames[obs.PIDDeviceBase]; !strings.Contains(n, "alpha.force") {
		t.Errorf("pid %d process_name = %q, want alpha.force", obs.PIDDeviceBase, n)
	}
	if n := processNames[obs.PIDDeviceBase+1]; !strings.Contains(n, "beta.reduce") {
		t.Errorf("pid %d process_name = %q, want beta.reduce", obs.PIDDeviceBase+1, n)
	}
}
