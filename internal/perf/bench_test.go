package perf

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gpusim"
	"repro/internal/pipeline"
)

// benchConfig is a tiny sweep on the real HD 5850 model: small enough for
// unit tests, real enough that the occupancy regimes show.
func benchConfig() BenchConfig {
	cfg := DefaultBenchConfig()
	cfg.Sizes = []int{256, 1024}
	cfg.Repeats = 2
	return cfg
}

// sharedBench caches the sweep across tests (the harness is the slow part).
var sharedBench *BenchReport

func getBench(t *testing.T) *BenchReport {
	t.Helper()
	if sharedBench == nil {
		rep, err := RunBench(benchConfig())
		if err != nil {
			t.Fatalf("RunBench: %v", err)
		}
		sharedBench = rep
	}
	return sharedBench
}

func TestRunBenchStructure(t *testing.T) {
	rep := getBench(t)
	if rep.SchemaVersion != BenchSchemaVersion {
		t.Errorf("schema version = %d, want %d", rep.SchemaVersion, BenchSchemaVersion)
	}
	// len(PlanNames) plans at each size, plus the hermite-block sweep point.
	if len(rep.Points) != len(PlanNames)*2+1 {
		t.Fatalf("points = %d, want %d", len(rep.Points), len(PlanNames)*2+1)
	}
	var sawHermite bool
	for _, pt := range rep.Points {
		if pt.KernelMS.Mean <= 0 || pt.KernelMS.Samples != 2 {
			t.Errorf("%s N=%d: degenerate kernel stat %+v", pt.Plan, pt.N, pt.KernelMS)
		}
		if pt.WallMS.Mean <= 0 {
			t.Errorf("%s N=%d: no wall time", pt.Plan, pt.N)
		}
		// The measured host columns have a sample per repeat too.
		if pt.HostBuildMS.Samples != rep.Repeats || pt.AllocsPerStep.Samples != rep.Repeats {
			t.Errorf("%s N=%d: %d host-build and %d allocs samples, want %d each",
				pt.Plan, pt.N, pt.HostBuildMS.Samples, pt.AllocsPerStep.Samples, rep.Repeats)
		}
		// The modelled kernel time is deterministic across repeats.
		if pt.KernelMS.Std != 0 {
			t.Errorf("%s N=%d: modelled kernel time varies across repeats: %+v",
				pt.Plan, pt.N, pt.KernelMS)
		}
		// Every modelled millisecond of the total has a column.
		if sum := pt.KernelMS.Mean + pt.TransferMS.Mean + pt.HostMS.Mean; math.Abs(sum-pt.TotalMS.Mean) > 1e-12*pt.TotalMS.Mean {
			t.Errorf("%s N=%d: kernel %g + transfer %g + host %g = %g, total %g",
				pt.Plan, pt.N, pt.KernelMS.Mean, pt.TransferMS.Mean, pt.HostMS.Mean, sum, pt.TotalMS.Mean)
		}
		if pt.Plan == hermiteBlockPlan {
			sawHermite = true
			if pt.ActiveFraction <= 0 || pt.ActiveFraction >= 1 {
				t.Errorf("hermite-block active fraction %g not in (0,1)", pt.ActiveFraction)
			}
		} else if pt.ActiveFraction != 1 {
			t.Errorf("%s N=%d: active fraction %g, want 1", pt.Plan, pt.N, pt.ActiveFraction)
		}
		if pt.Report.SchemaVersion != PlanReportSchemaVersion {
			t.Errorf("%s N=%d: plan report schema v%d, want v%d",
				pt.Plan, pt.N, pt.Report.SchemaVersion, PlanReportSchemaVersion)
		}
		if len(pt.Report.Kernels) == 0 {
			t.Errorf("%s N=%d: no kernel reports", pt.Plan, pt.N)
		}
		if pt.Report.Attribution.Spans == 0 {
			t.Errorf("%s N=%d: attribution consumed no spans", pt.Plan, pt.N)
		}
	}
	if !sawHermite {
		t.Error("sweep has no hermite-block point")
	}
}

// TestBenchOccupancyRegimes asserts the paper's explanation falls out of the
// reports: at small N i-parallel cannot generate enough work-groups to cover
// the device (most CUs sit idle), while jw-parallel spreads its walk queues
// across CUs and keeps the device fuller. DeviceFill is the device-wide
// resident-wavefront fraction that captures this.
func TestBenchOccupancyRegimes(t *testing.T) {
	rep := getBench(t)
	ipSmall := rep.Point("i-parallel", 256)
	jwSmall := rep.Point("jw-parallel", 256)
	ipBig := rep.Point("i-parallel", 1024)
	if ipSmall == nil || jwSmall == nil || ipBig == nil {
		t.Fatal("missing points")
	}
	ipFill := ipSmall.Report.Kernels[0].DeviceFill
	jwFill := jwSmall.Report.Kernels[0].DeviceFill
	if ipFill >= jwFill {
		t.Errorf("i-parallel device fill %.4f not below jw-parallel %.4f at N=256", ipFill, jwFill)
	}
	if ipSmall.Report.Kernels[0].ActiveCUs >= jwSmall.Report.Kernels[0].ActiveCUs {
		t.Errorf("i-parallel active CUs %d not below jw-parallel %d at N=256",
			ipSmall.Report.Kernels[0].ActiveCUs, jwSmall.Report.Kernels[0].ActiveCUs)
	}
	if ipFill >= ipBig.Report.Kernels[0].DeviceFill {
		t.Errorf("i-parallel device fill does not recover with N: %.4f at 256 vs %.4f at 1024",
			ipFill, ipBig.Report.Kernels[0].DeviceFill)
	}
	// The BH plans' pipelines include host tree/list work; the PP plans' do
	// not. Attribution must reflect that.
	if jwSmall.Report.Attribution.StageSeconds[StageTree] <= 0 {
		t.Error("jw-parallel attribution missing tree build stage")
	}
	if ipSmall.Report.Attribution.StageSeconds[StageTree] != 0 {
		t.Error("i-parallel attribution has a tree build stage")
	}
}

func TestBenchJSONRoundTrip(t *testing.T) {
	rep := getBench(t)
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if !strings.Contains(buf.String(), "\"schema_version\": 4") {
		t.Error("schema_version missing from JSON")
	}
	if !strings.Contains(buf.String(), "\"pipeline\": \"serial\"") {
		t.Error("pipeline mode missing from JSON")
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := WriteBenchReport(path, rep); err != nil {
		t.Fatalf("WriteBenchReport: %v", err)
	}
	got, err := ReadBenchReport(path)
	if err != nil {
		t.Fatalf("ReadBenchReport: %v", err)
	}
	if got.SchemaVersion != rep.SchemaVersion || len(got.Points) != len(rep.Points) {
		t.Fatalf("round trip lost data: %d points v%d", len(got.Points), got.SchemaVersion)
	}
	if got.DeviceModel != rep.DeviceModel {
		t.Fatal("device model did not round-trip")
	}
}

func TestCompareNoRegressionAgainstSelf(t *testing.T) {
	rep := getBench(t)
	diffs, warns, err := Compare(rep, rep)
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	if len(diffs) != 0 {
		t.Fatalf("self-comparison differs: %v", diffs)
	}
	if len(warns) != 0 {
		t.Fatalf("self-comparison warned: %v", warns)
	}
}

// TestCompareDetectsSlowedDevice is the acceptance check: a deliberately
// slowed device model must fail the baseline comparison, at the clock
// setting and at every point's modelled kernel time.
func TestCompareDetectsSlowedDevice(t *testing.T) {
	base := getBench(t)
	slow := benchConfig()
	slow.Device.ClockHz *= 0.5 // half the engine clock
	cur, err := RunBench(slow)
	if err != nil {
		t.Fatalf("RunBench(slow): %v", err)
	}
	diffs, _, err := Compare(base, cur)
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	sawClock, kernelMoved := false, 0
	for _, d := range diffs {
		sawClock = sawClock || strings.HasPrefix(d, "device_model.ClockHz ")
		if strings.Contains(d, " kernelMs.mean ") {
			kernelMoved++
		}
	}
	if !sawClock {
		t.Errorf("halved device clock is not a settings diff: %q", diffs)
	}
	if kernelMoved != len(cur.Points) {
		t.Errorf("kernel time moved on %d of %d points", kernelMoved, len(cur.Points))
	}
}

func TestCompareSchemaMismatch(t *testing.T) {
	rep := getBench(t)
	other := *rep
	other.SchemaVersion = rep.SchemaVersion + 1
	if _, _, err := Compare(rep, &other); err == nil {
		t.Fatal("schema mismatch accepted")
	}
}

func TestCompareDisjointPointsWarns(t *testing.T) {
	rep := getBench(t)
	other := *rep
	other.Points = []BenchPoint{{Plan: "i-parallel", N: 999999}}
	_, warns, err := Compare(rep, &other)
	if err != nil {
		t.Fatal(err)
	}
	if len(warns) == 0 {
		t.Fatal("disjoint comparison produced no warning")
	}
}

// cloneReport deep-copies a report through its JSON encoding.
func cloneReport(t *testing.T, r *BenchReport) *BenchReport {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var c BenchReport
	if err := json.Unmarshal(buf.Bytes(), &c); err != nil {
		t.Fatal(err)
	}
	return &c
}

// TestCompareGates pins Compare's exact diff with one-ulp edits of a real
// sweep: an edit to a modelled leaf, either way, is exactly one diff that
// names the point and the leaf; an edit to a measured leaf or a repeat count
// is none; and a current point without a baseline counterpart is named in a
// warning instead of passing unexamined.
func TestCompareGates(t *testing.T) {
	base := getBench(t)
	up := func(x *float64) { *x = math.Nextafter(*x, math.Inf(1)) }
	down := func(x *float64) { *x = math.Nextafter(*x, math.Inf(-1)) }
	for _, tc := range []struct {
		name    string
		edit    func(r *BenchReport)
		diff    string // the only diff's point and leaf, "" for none
		warning string // substring of the only warning, "" for none
	}{
		{"a kernel time one ulp slower",
			func(r *BenchReport) { up(&r.Point("jw-parallel", 1024).KernelMS.Mean) },
			"jw-parallel N=1024 kernelMs.mean", ""},
		{"a kernel time one ulp faster",
			func(r *BenchReport) { down(&r.Point("jw-parallel", 1024).KernelMS.Mean) },
			"jw-parallel N=1024 kernelMs.mean", ""},
		{"a kernel report field",
			func(r *BenchReport) { up(&r.Point("i-parallel", 256).Report.Kernels[0].DeviceFill) },
			"i-parallel N=256 report.kernels[0].deviceFill", ""},
		{"the hermite-block point",
			func(r *BenchReport) { up(&r.Point(hermiteBlockPlan, 256).TotalMS.Max) },
			"hermite-block N=256 totalMs.max", ""},
		{"a sweep setting",
			func(r *BenchReport) { r.Theta = math.Nextafter32(r.Theta, 1) },
			"theta", ""},
		{"the wall time",
			func(r *BenchReport) { up(&r.Point("jw-parallel", 1024).WallMS.Mean) },
			"", ""},
		{"the measured host build and allocations",
			func(r *BenchReport) {
				p := r.Point("jw-parallel", 1024)
				up(&p.HostBuildMS.Mean)
				up(&p.AllocsPerStep.Max)
				up(&p.Report.HostBuildSeconds)
				up(&p.Report.Attribution.HostBuildWallSeconds)
			},
			"", ""},
		{"a repeat count",
			func(r *BenchReport) { r.Point("jw-parallel", 1024).KernelMS.Samples++ },
			"", ""},
		{"an unmatched point",
			func(r *BenchReport) { r.Points = append(r.Points, BenchPoint{Plan: hermiteBlockPlan, N: 512}) },
			"", "hermite-block N=512 has no baseline point"},
	} {
		cur := cloneReport(t, base)
		tc.edit(cur)
		diffs, warns, err := Compare(base, cur)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		switch {
		case tc.diff == "" && len(diffs) != 0:
			t.Errorf("%s: diffs %v, want none", tc.name, diffs)
		case tc.diff != "" && (len(diffs) != 1 || !strings.HasPrefix(diffs[0], tc.diff+" ")):
			t.Errorf("%s: diffs %v, want one naming %q", tc.name, diffs, tc.diff)
		}
		if tc.warning == "" && len(warns) != 0 || tc.warning != "" && (len(warns) != 1 || !strings.Contains(warns[0], tc.warning)) {
			t.Errorf("%s: warnings %q, want one containing %q", tc.name, warns, tc.warning)
		}
	}
}

func TestRunBenchValidation(t *testing.T) {
	cfg := benchConfig()
	cfg.Sizes = nil
	if _, err := RunBench(cfg); err == nil {
		t.Error("empty sweep accepted")
	}
	cfg = benchConfig()
	cfg.Plans = []string{"no-such-plan"}
	if _, err := RunBench(cfg); err == nil {
		t.Error("unknown plan accepted")
	}
}

func TestRunBenchTraceOut(t *testing.T) {
	cfg := QuickBenchConfig()
	cfg.Sizes = []int{256}
	cfg.Repeats = 1
	cfg.Plans = []string{"jw-parallel"}
	var trace bytes.Buffer
	cfg.TraceOut = &trace
	if _, err := RunBench(cfg); err != nil {
		t.Fatalf("RunBench: %v", err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace.Bytes(), &doc); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
}

// TestBenchSerialPipelinedEqualsTotal pins the serial-mode invariant: with
// evaluations laid end to end, the executed per-evaluation cost is the
// serial total bit for bit, in every repeat, and the speedup column reads
// exactly 1.
func TestBenchSerialPipelinedEqualsTotal(t *testing.T) {
	rep := getBench(t)
	if rep.Pipeline != "serial" {
		t.Fatalf("default sweep pipeline = %q, want serial", rep.Pipeline)
	}
	for _, pt := range rep.Points {
		if pt.PipelinedMS != pt.TotalMS {
			t.Errorf("%s N=%d: serial pipelined %+v != total %+v",
				pt.Plan, pt.N, pt.PipelinedMS, pt.TotalMS)
		}
		if pt.SpeedupVsSerial != 1 {
			t.Errorf("%s N=%d: serial speedup = %.17g, want 1", pt.Plan, pt.N, pt.SpeedupVsSerial)
		}
	}
	if err := VerifyOverlapBeatsSerial(rep); err != nil {
		t.Errorf("serial report fails overlap<=serial invariant: %v", err)
	}
}

// TestBenchOverlapSpeedsUpBHPlans runs the sweep in overlap mode and checks
// the paper's pipelining claim falls out: the BH plans (whose host tree/list
// build can hide behind device work) get a strict speedup, nothing regresses
// past its serial total, and the speedup column is consistent with the two
// time columns.
func TestBenchOverlapSpeedsUpBHPlans(t *testing.T) {
	cfg := benchConfig()
	cfg.Pipeline = pipeline.Overlap
	rep, err := RunBench(cfg)
	if err != nil {
		t.Fatalf("RunBench: %v", err)
	}
	if rep.Pipeline != "overlap" {
		t.Fatalf("pipeline = %q, want overlap", rep.Pipeline)
	}
	if err := VerifyOverlapBeatsSerial(rep); err != nil {
		t.Fatalf("overlap slower than serial: %v", err)
	}
	for _, name := range []string{"w-parallel", "jw-parallel"} {
		pt := rep.Point(name, 1024)
		if pt == nil {
			t.Fatalf("missing %s point", name)
		}
		if pt.PipelinedMS.Mean >= pt.TotalMS.Mean {
			t.Errorf("%s N=1024: overlap pipelined %.6gms not below serial total %.6gms",
				name, pt.PipelinedMS.Mean, pt.TotalMS.Mean)
		}
		if pt.SpeedupVsSerial <= 1 {
			t.Errorf("%s N=1024: overlap speedup = %g, want > 1", name, pt.SpeedupVsSerial)
		}
		if want := pt.TotalMS.Mean / pt.PipelinedMS.Mean; !near(pt.SpeedupVsSerial, want) {
			t.Errorf("%s N=1024: speedup column %g inconsistent with times (%g)",
				name, pt.SpeedupVsSerial, want)
		}
	}
	// Overlap changes only the executed placement, never the amount of
	// modelled work: against the serial sweep only the pipelined leaves
	// move, and Compare skips exactly those, with a warning.
	base := getBench(t)
	diffs, warns, err := Compare(base, rep)
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) != 0 {
		t.Errorf("overlap sweep differs from the serial one: %v", diffs)
	}
	if len(warns) != 1 || !strings.Contains(warns[0], "pipeline mode differs") {
		t.Errorf("warnings %q, want one on the pipeline mode", warns)
	}
	sameMode := *rep
	sameMode.Pipeline = base.Pipeline
	if diffs, _, err = Compare(base, &sameMode); err != nil {
		t.Fatal(err)
	}
	if len(diffs) == 0 {
		t.Error("no pipelined leaf moved under overlap")
	}
	for _, d := range diffs {
		if leaf := strings.Fields(d)[2]; !strings.HasPrefix(leaf, "pipelinedMs.") && leaf != "speedupVsSerial" {
			t.Errorf("%s moved under overlap", d)
		}
	}
}

// TestVerifyOverlapBeatsSerialDetectsViolation flips one point and expects
// the gate to trip.
func TestVerifyOverlapBeatsSerialDetectsViolation(t *testing.T) {
	rep := getBench(t)
	bad := *rep
	bad.Points = append([]BenchPoint(nil), rep.Points...)
	bad.Points[0].PipelinedMS.Mean = bad.Points[0].TotalMS.Mean * 1.5
	err := VerifyOverlapBeatsSerial(&bad)
	if err == nil {
		t.Fatal("inflated pipelined time passed the gate")
	}
	if !strings.Contains(err.Error(), bad.Points[0].Plan) {
		t.Errorf("violation message %q does not name the plan", err)
	}
}

// TestReadBenchReportRejectsOtherVersions: the reader takes only the current
// layout. Every other BENCH version, and a current file with one point whose
// embedded plan report has another version, fails with an error that names
// the file, the version found and the fix.
func TestReadBenchReportRejectsOtherVersions(t *testing.T) {
	rep := getBench(t)
	cases := []struct {
		bench, point int
		found        string
	}{
		{0, PlanReportSchemaVersion, "BENCH schema v0,"},
		{1, PlanReportSchemaVersion, "BENCH schema v1,"},
		{3, PlanReportSchemaVersion, "BENCH schema v3,"},
		{5, PlanReportSchemaVersion, "BENCH schema v5,"},
		{BenchSchemaVersion, 0, "plan report schema v0,"},
	}
	for _, c := range cases {
		doc := *rep
		doc.SchemaVersion = c.bench
		doc.Points = append([]BenchPoint(nil), rep.Points...)
		doc.Points[len(doc.Points)-1].Report.SchemaVersion = c.point
		path := filepath.Join(t.TempDir(), fmt.Sprintf("bench_v%d_report_v%d.json", c.bench, c.point))
		if err := WriteBenchReport(path, &doc); err != nil {
			t.Fatal(err)
		}
		_, err := ReadBenchReport(path)
		if err == nil {
			t.Errorf("BENCH v%d with a v%d plan report accepted", c.bench, c.point)
			continue
		}
		for _, want := range []string{path, c.found, "cmd/bench -out"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not contain %q", err, want)
			}
		}
	}
}

// TestReadBenchReportRejectsNewerSchema guards the other direction: a file
// written by a future schema must not be silently misread.
func TestReadBenchReportRejectsNewerSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench_future.json")
	if err := writeFile(path, []byte(`{"schema_version": 99}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBenchReport(path); err == nil {
		t.Fatal("future schema accepted")
	}
}

func TestStat(t *testing.T) {
	s := newStat([]float64{1, 2, 3, 4})
	if s.Mean != 2.5 || s.Min != 1 || s.Max != 4 || s.Samples != 4 {
		t.Errorf("stat = %+v", s)
	}
	if !near(s.Std, 1.118033988749895) {
		t.Errorf("std = %g", s.Std)
	}
	if z := newStat(nil); z.Samples != 0 || z.Mean != 0 {
		t.Errorf("empty stat = %+v", z)
	}
	// Equal samples average to themselves: a modelled time repeated by a
	// sweep must not depend on the repeat count. j-parallel N 1024's kernel
	// time summed three times and divided by 3 loses its last bit.
	for _, x := range []float64{0.18178174137931052, 0.1, 1.0 / 3} {
		for n := 1; n <= 5; n++ {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = x
			}
			if s := newStat(xs); s.Mean != x || s.Std != 0 || s.Min != x || s.Max != x {
				t.Errorf("%d samples of %.17g: stat = %+v", n, x, s)
			}
		}
	}
}

func TestNewPlanCoversAll(t *testing.T) {
	for _, name := range PlanNames {
		p, err := newPlan(name, gpusim.TestDevice(), 0.6, 0.05)
		if err != nil || p == nil {
			t.Errorf("newPlan(%s): %v", name, err)
		}
	}
}
