package perf

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/gpusim"
	"repro/internal/ic"
)

// buildTestReport runs one jw-parallel evaluation on the test device and
// returns its report.
func buildTestReport(t *testing.T) PlanReport {
	t.Helper()
	plan, err := newPlan("jw-parallel", gpusim.TestDevice(), 0.6, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	sys := ic.Plummer(64, 7)
	prof, err := plan.Accel(sys)
	if err != nil {
		t.Fatal(err)
	}
	return BuildPlanReport(gpusim.TestDevice(), prof)
}

// TestPlanReportMultiDeviceAttribution: the multi-device plan's attribution
// reads the schedule of its slowest device, whose host front is the plan's
// one host stage and whose device chain fits inside the plan's maximum
// kernel plus maximum transfer time.
func TestPlanReportMultiDeviceAttribution(t *testing.T) {
	plan, err := newPlan("jw-parallel-x2", gpusim.HD5850(), 0.6, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := plan.Accel(ic.Plummer(1024, 7))
	if err != nil {
		t.Fatal(err)
	}
	rep := BuildPlanReport(gpusim.HD5850(), prof)
	if rep.HostSeconds <= 0 || rep.Attribution.HostSeconds != rep.HostSeconds {
		t.Errorf("attribution host %g, report host %g", rep.Attribution.HostSeconds, rep.HostSeconds)
	}
	dev := rep.KernelSeconds + rep.TransferSeconds
	if got := rep.Attribution.DeviceSeconds; got <= 0 || got > dev*(1+1e-12) {
		t.Errorf("attribution device %g, want in (0, kernel+transfer %g]", got, dev)
	}
	if len(rep.Kernels) != 2 {
		t.Errorf("%d kernel reports, want one per device", len(rep.Kernels))
	}
}

func TestPlanReportCarriesSchemaVersion(t *testing.T) {
	rep := buildTestReport(t)
	if rep.SchemaVersion != PlanReportSchemaVersion {
		t.Fatalf("schema version %d, want %d", rep.SchemaVersion, PlanReportSchemaVersion)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"schema_version": 1`) {
		t.Fatal("serialized report is missing schema_version")
	}
}

func TestPlanReportRoundTrip(t *testing.T) {
	rep := buildTestReport(t)
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got PlanReport
	if err := json.NewDecoder(&buf).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, got) {
		t.Fatalf("round trip changed the report:\n in %+v\nout %+v", rep, got)
	}
}
