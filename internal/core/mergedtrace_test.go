package core

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cl"
	"repro/internal/gpusim"
	"repro/internal/ic"
	"repro/internal/obs"
)

// TestMergedTraceEndToEnd is the integration check for the unified trace
// export: run the jw-parallel plan with telemetry on, write the merged
// Chrome trace to a file, decode it, and verify that host spans, transfer
// events, and device CU slices all landed in the one timeline.
func TestMergedTraceEndToEnd(t *testing.T) {
	ctx := newHD5850Context(t)
	plan := planOn[*JWParallel](t, ctx, "jw-parallel")
	eng := NewEngine(plan)
	o := obs.New()
	eng.SetObs(o)

	sys := ic.Plummer(2048, 11)
	if _, err := eng.Accel(sys); err != nil {
		t.Fatal(err)
	}
	if len(eng.LastLaunches) == 0 {
		t.Fatal("engine recorded no launches")
	}

	path := filepath.Join(t.TempDir(), "merged.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.WriteMergedTrace(f, o.Trace, gpusim.HD5850(), eng.LastLaunches...); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []obs.TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}

	var hostSpans, transfers, deviceSlices int
	hostNames := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Phase != "X" {
			continue
		}
		switch {
		case ev.PID == obs.PIDHost:
			hostSpans++
			hostNames[ev.Name] = true
		case ev.PID == obs.PIDPipeline && ev.Category == "transfer":
			transfers++
		case ev.PID >= obs.PIDDeviceBase:
			deviceSlices++
		}
	}
	if hostSpans == 0 {
		t.Error("no host spans in merged trace")
	}
	if !hostNames["tree build"] || !hostNames["walk/list build"] {
		t.Errorf("host pipeline stages missing from trace; got %v", hostNames)
	}
	if transfers == 0 {
		t.Error("no transfer events in merged trace")
	}
	if deviceSlices == 0 {
		t.Error("no device CU slices in merged trace")
	}
}
