package gpusim

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/obs"
)

// writeTrace writes the device's trace events for results as a Chrome
// trace document and decodes it again.
func writeTrace(t *testing.T, d *Device, results ...*Result) []obs.TraceEvent {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, nil, TraceEvents(d.Config, obs.PIDDeviceBase, results...)); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []obs.TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	return doc.TraceEvents
}

func TestWriteTraceEventsAndMetadata(t *testing.T) {
	d := testDev(t)
	res := launchUniform(t, d, 4, 100, 16, 0, 0)
	events := writeTrace(t, d, res)

	var slices, procNames int
	threadNames := map[int]bool{}
	for _, e := range events {
		switch e.Phase {
		case "X":
			slices++
			if e.Dur <= 0 {
				t.Errorf("slice with non-positive duration: %+v", e)
			}
			if e.TID < 0 || e.TID >= d.Config.ComputeUnits {
				t.Errorf("slice on CU %d outside device", e.TID)
			}
			if e.PID != obs.PIDDeviceBase {
				t.Errorf("slice on pid %d, want %d", e.PID, obs.PIDDeviceBase)
			}
			if b, ok := e.Args["bound"].(string); !ok || (b != "alu" && b != "mem" && b != "lds") {
				t.Errorf("slice with bad bound arg: %+v", e.Args)
			}
		case "M":
			switch e.Name {
			case "process_name":
				procNames++
				if name, _ := e.Args["name"].(string); name == "" {
					t.Errorf("process_name without a name: %+v", e)
				}
			case "thread_name":
				threadNames[e.TID] = true
			default:
				t.Errorf("unexpected metadata event %q", e.Name)
			}
		default:
			t.Errorf("unexpected phase %q", e.Phase)
		}
	}
	if slices != 4 {
		t.Fatalf("trace has %d slices, want 4 (one per group)", slices)
	}
	if procNames != 1 {
		t.Fatalf("trace has %d process_name events, want 1", procNames)
	}
	// Every CU that carries a slice must be named.
	for _, e := range events {
		if e.Phase == "X" && !threadNames[e.TID] {
			t.Errorf("CU %d carries slices but has no thread_name", e.TID)
		}
	}
}

func TestWriteTraceMultiKernelPIDs(t *testing.T) {
	d := testDev(t)
	r1 := launchUniform(t, d, 2, 100, 16, 0, 0)
	r2 := launchUniform(t, d, 3, 200, 16, 0, 0)
	events := writeTrace(t, d, r1, r2)

	slicesByPID := map[int]int{}
	procByPID := map[int]int{}
	var maxEnd0 float64
	var minStart1 = -1.0
	for _, e := range events {
		switch e.Phase {
		case "X":
			slicesByPID[e.PID]++
			switch e.PID {
			case obs.PIDDeviceBase:
				if end := e.TS + e.Dur; end > maxEnd0 {
					maxEnd0 = end
				}
			case obs.PIDDeviceBase + 1:
				if minStart1 < 0 || e.TS < minStart1 {
					minStart1 = e.TS
				}
			}
		case "M":
			if e.Name == "process_name" {
				procByPID[e.PID]++
			}
		}
	}
	if slicesByPID[obs.PIDDeviceBase] != 2 || slicesByPID[obs.PIDDeviceBase+1] != 3 {
		t.Fatalf("slices per pid = %v, want 2 and 3 on consecutive pids", slicesByPID)
	}
	if procByPID[obs.PIDDeviceBase] != 1 || procByPID[obs.PIDDeviceBase+1] != 1 {
		t.Fatalf("each Result must get exactly one process_name, got %v", procByPID)
	}
	// Results execute in order on an in-order queue: the second kernel's
	// slices start at or after the first kernel's makespan offset.
	if minStart1 < maxEnd0-1e-9 && minStart1 >= 0 {
		// Offset is by r1's makespan cycles; slices of r2 can't precede it.
		t.Errorf("second kernel starts at %gus before first kernel's offset window ends", minStart1)
	}
}

func TestTraceEventsSchedulesAreNonOverlappingPerCU(t *testing.T) {
	d := testDev(t)
	res := launchUniform(t, d, 16, 500, 16, 0, 0)
	events := TraceEvents(d.Config, obs.PIDDeviceBase, res)
	lastEnd := map[int]float64{}
	for _, e := range events {
		if e.Phase != "X" {
			continue
		}
		if e.TS < lastEnd[e.TID]-1e-9 {
			t.Fatalf("CU %d slice at %gus overlaps previous end %gus", e.TID, e.TS, lastEnd[e.TID])
		}
		lastEnd[e.TID] = e.TS + e.Dur
	}
}
