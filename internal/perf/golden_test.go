package perf

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/gpusim"
	"repro/internal/ic"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

func writeFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

// TestPlanReportGolden locks the perf-report JSON schema: every field of the
// report is a modelled (deterministic) quantity, so the full document for a
// fixed workload on the test device must be byte-stable. Run with -update
// after an intentional schema or cost-model change.
func TestPlanReportGolden(t *testing.T) {
	plan, err := newPlan("jw-parallel", gpusim.TestDevice(), 0.6, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	sys := ic.Plummer(64, 7)
	prof, err := plan.Accel(sys)
	if err != nil {
		t.Fatal(err)
	}
	rep := BuildPlanReport(gpusim.TestDevice(), prof)
	// The measured host-build wall time is the one machine-dependent field
	// of the report; zero it so the modelled remainder stays byte-stable.
	rep.HostBuildSeconds = 0
	rep.Attribution.HostBuildWallSeconds = 0

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "plan_report.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := writeFile(golden, buf.Bytes()); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("perf report JSON drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s\nIf the change is intentional, regenerate with: go test ./internal/perf -run Golden -update",
			buf.Bytes(), want)
	}
}
