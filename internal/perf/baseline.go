package perf

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Thresholds are the allowed relative worsenings per metric when comparing a
// bench report against a baseline. All modelled metrics are deterministic,
// so the margins exist to absorb intentional small calibration tweaks, not
// measurement noise; anything past them is a regression. A zero threshold
// is an exact gate: any worsening at all is a regression.
type Thresholds struct {
	// KernelMS / TotalMS: allowed fractional increase of the mean modelled
	// kernel / total time (0.05 = 5% slower fails).
	KernelMS float64 `json:"kernelMs"`
	TotalMS  float64 `json:"totalMs"`
	// GFLOPS: allowed fractional decrease of the mean kernel GFLOPS.
	GFLOPS float64 `json:"gflops"`
	// Occupancy: allowed fractional decrease of the first kernel's resident
	// wavefronts.
	Occupancy float64 `json:"occupancy"`
}

// Regression is one metric of one point that worsened past its threshold.
type Regression struct {
	Plan     string  `json:"plan"`
	N        int     `json:"n"`
	Metric   string  `json:"metric"`
	Baseline float64 `json:"baseline"`
	Current  float64 `json:"current"`
	// Change is the relative worsening (positive; direction-normalised, so
	// +0.12 means 12% slower / lower-throughput than baseline).
	Change  float64 `json:"change"`
	Allowed float64 `json:"allowed"`
}

// String renders the regression for CLI output.
func (r Regression) String() string {
	return fmt.Sprintf("%-12s N=%-7d %-10s %12.4g -> %-12.4g (%+.1f%%, allowed %.1f%%)",
		r.Plan, r.N, r.Metric, r.Baseline, r.Current, r.Change*100, r.Allowed*100)
}

// relWorse returns the relative worsening of cur against base, where
// higherIsWorse says which direction is bad. Zero baselines compare equal.
func relWorse(base, cur float64, higherIsWorse bool) float64 {
	if base == 0 {
		return 0
	}
	change := (cur - base) / base
	if !higherIsWorse {
		change = -change
	}
	if base < 0 {
		change = -change
	}
	return change
}

// Compare diffs cur against base point-by-point, matching on plan and N,
// and returns every metric that worsened past its threshold. Each current
// point with no baseline counterpart is named in a warning and not
// compared. It errors when the schema versions differ — such files must not
// be silently diffed. A device-model mismatch is reported via the warnings
// list, not an error: a deliberately changed device model should surface as
// metric regressions, with the warning explaining why.
func Compare(base, cur *BenchReport, th Thresholds) (regs []Regression, warnings []string, err error) {
	if base.SchemaVersion != cur.SchemaVersion {
		return nil, nil, fmt.Errorf("perf: schema version mismatch: baseline v%d vs current v%d",
			base.SchemaVersion, cur.SchemaVersion)
	}
	if base.DeviceModel != cur.DeviceModel {
		warnings = append(warnings, fmt.Sprintf(
			"device model differs from baseline (%q vs %q): time deltas reflect the model change",
			cur.DeviceModel.Name, base.DeviceModel.Name))
	}
	if base.Pipeline != cur.Pipeline {
		warnings = append(warnings, fmt.Sprintf(
			"pipeline mode differs from baseline (%q vs %q): pipelined-time deltas reflect the mode change",
			cur.Pipeline, base.Pipeline))
	}
	matched := 0
	for i := range cur.Points {
		cp := &cur.Points[i]
		bp := base.Point(cp.Plan, cp.N)
		if bp == nil {
			warnings = append(warnings, fmt.Sprintf(
				"%s N=%d has no baseline point: not compared", cp.Plan, cp.N))
			continue
		}
		matched++
		check := func(metric string, b, c, allowed float64, higherIsWorse bool) {
			if change := relWorse(b, c, higherIsWorse); change > allowed {
				regs = append(regs, Regression{
					Plan: cp.Plan, N: cp.N, Metric: metric,
					Baseline: b, Current: c, Change: change, Allowed: allowed,
				})
			}
		}
		check("kernel_ms", bp.KernelMS.Mean, cp.KernelMS.Mean, th.KernelMS, true)
		check("total_ms", bp.TotalMS.Mean, cp.TotalMS.Mean, th.TotalMS, true)
		check("gflops", bp.KernelGFLOPS.Mean, cp.KernelGFLOPS.Mean, th.GFLOPS, false)
		if len(bp.Report.Kernels) > 0 && len(cp.Report.Kernels) > 0 {
			check("occupancy",
				float64(bp.Report.Kernels[0].OccupancyWavefronts),
				float64(cp.Report.Kernels[0].OccupancyWavefronts),
				th.Occupancy, false)
		}
	}
	if matched == 0 {
		warnings = append(warnings, "no (plan, N) points in common with the baseline — nothing compared")
	}
	return regs, warnings, nil
}

// WriteJSON writes the report as indented JSON.
func (r *BenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteBenchReport writes the report to path as indented JSON, the file
// ReadBenchReport loads.
func WriteBenchReport(path string, r *BenchReport) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadBenchReport loads a BENCH_*.json file. It reads only the current
// layout, BENCH v4 with a v1 PlanReport in every point, and rejects any
// other version rather than upgrading it: an older file is regenerated with
// cmd/bench -out.
func ReadBenchReport(path string) (*BenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r BenchReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("perf: %s: %w", path, err)
	}
	if r.SchemaVersion != BenchSchemaVersion {
		return nil, fmt.Errorf("perf: %s: BENCH schema v%d, want v%d; regenerate it with cmd/bench -out",
			path, r.SchemaVersion, BenchSchemaVersion)
	}
	for _, pt := range r.Points {
		if pt.Report.SchemaVersion != PlanReportSchemaVersion {
			return nil, fmt.Errorf("perf: %s: %s N=%d: plan report schema v%d, want v%d; regenerate it with cmd/bench -out",
				path, pt.Plan, pt.N, pt.Report.SchemaVersion, PlanReportSchemaVersion)
		}
	}
	return &r, nil
}

// VerifyOverlapBeatsSerial checks the invariant the overlap pipeline must
// satisfy on every point: the executed (pipelined) time never exceeds the
// serial total. CI's overlap bench-smoke gates on this. A small relative
// slack absorbs float accumulation differences between the two accountings.
func VerifyOverlapBeatsSerial(r *BenchReport) error {
	const slack = 1e-9
	var bad []string
	for i := range r.Points {
		pt := &r.Points[i]
		if pt.PipelinedMS.Mean > pt.TotalMS.Mean*(1+slack) {
			bad = append(bad, fmt.Sprintf("%s N=%d: pipelined %.6gms > serial %.6gms",
				pt.Plan, pt.N, pt.PipelinedMS.Mean, pt.TotalMS.Mean))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("perf: overlap slower than serial on %d point(s):\n  %s",
			len(bad), joinLines(bad))
	}
	return nil
}

// joinLines joins with newline+indent for multi-line error rendering.
func joinLines(lines []string) string {
	out := ""
	for i, l := range lines {
		if i > 0 {
			out += "\n  "
		}
		out += l
	}
	return out
}
