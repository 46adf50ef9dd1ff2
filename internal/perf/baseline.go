package perf

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
)

// measuredLeaves are the point leaves a sweep measures on the machine that
// ran it rather than models, as JSON paths within a point; each covers the
// leaves under it. Compare skips them, and every repeat count, samples.
var measuredLeaves = []string{"wallMs", "hostBuildMs", "allocsPerStep",
	"report.hostBuildSeconds", "report.attribution.hostBuildWallSeconds"}

// pipelinedLeaves depend on the sweep's pipeline mode. Compare skips them
// when the two reports ran in different modes.
var pipelinedLeaves = []string{"pipelinedMs", "speedupVsSerial"}

// Compare diffs the modelled leaves of cur against base exactly: the
// sweep's settings (device_model, theta, eps, seed) and each point of cur
// against the base point with the same plan and N. Every leaf but the
// measured ones and the repeat counts must keep its bits; each diff names
// the point (none for a setting), the leaf's JSON path and both values.
// Reports of different pipeline modes skip the pipelined leaves too, with a
// warning. Each current point with no baseline counterpart is named in a
// warning and not compared. It errors when the schema versions differ.
func Compare(base, cur *BenchReport) (diffs, warnings []string, err error) {
	if base.SchemaVersion != cur.SchemaVersion {
		return nil, nil, fmt.Errorf("perf: schema version mismatch: baseline v%d vs current v%d",
			base.SchemaVersion, cur.SchemaVersion)
	}
	skip := measuredLeaves
	if base.Pipeline != cur.Pipeline {
		warnings = append(warnings, fmt.Sprintf(
			"pipeline mode differs from baseline (%q vs %q): %s not compared",
			cur.Pipeline, base.Pipeline, strings.Join(pipelinedLeaves, " and ")))
		skip = append(skip[:len(skip):len(skip)], pipelinedLeaves...)
	}
	settings := func(r *BenchReport) any {
		return map[string]any{"device_model": r.DeviceModel, "theta": r.Theta, "eps": r.Eps, "seed": r.Seed}
	}
	b, c := map[string]any{"": settings(base)}, map[string]any{"": settings(cur)}
	for i := range cur.Points {
		cp := &cur.Points[i]
		if bp := base.Point(cp.Plan, cp.N); bp != nil {
			point := fmt.Sprintf("%s N=%d ", cp.Plan, cp.N)
			b[point], c[point] = bp, cp
		} else {
			warnings = append(warnings, fmt.Sprintf(
				"%s N=%d has no baseline point: not compared", cp.Plan, cp.N))
		}
	}
	if len(c) == 1 { // the settings alone
		warnings = append(warnings, "no (plan, N) points in common with the baseline — nothing compared")
	}
	diffs, err = diffLeaves(b, c, skip)
	return diffs, warnings, err
}

// diffLeaves JSON-encodes the value under each point key of base and cur
// and returns "point path base -> cur" for each leaf whose text differs,
// sorted. Go encodes a float as the shortest text that reads back as the
// same bits, so equal text is equal bits.
func diffLeaves(base, cur map[string]any, skip []string) ([]string, error) {
	var sides [2]map[string]string
	for i, values := range []map[string]any{base, cur} {
		sides[i] = map[string]string{}
		for point, v := range values {
			data, err := json.Marshal(v)
			if err != nil {
				return nil, fmt.Errorf("perf: compare: %w", err)
			}
			dec := json.NewDecoder(bytes.NewReader(data))
			dec.UseNumber()
			var doc any
			_ = dec.Decode(&doc) // json.Marshal's own output always decodes
			flatten(point, "", doc, skip, sides[i])
		}
	}
	b, c := sides[0], sides[1]
	var keys []string
	for k := range c {
		if b[k] != c[k] {
			keys = append(keys, k)
		}
	}
	for k := range b {
		if _, ok := c[k]; !ok {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	diffs := make([]string, len(keys))
	for i, k := range keys {
		diffs[i] = fmt.Sprintf("%s %s -> %s", k, cmp.Or(b[k], "(absent)"), cmp.Or(c[k], "(absent)"))
	}
	return diffs, nil
}

// flatten adds the JSON text of each scalar in a decoded JSON value to out
// under point + its path, except under a skip path or a repeat count.
func flatten(point, path string, v any, skip []string, out map[string]string) {
	if slices.Contains(skip, path) || strings.HasSuffix(path, ".samples") {
		return
	}
	switch v := v.(type) {
	case map[string]any:
		for k, x := range v {
			if path != "" {
				k = path + "." + k
			}
			flatten(point, k, x, skip, out)
		}
	case []any:
		for i, x := range v {
			flatten(point, fmt.Sprintf("%s[%d]", path, i), x, skip, out)
		}
	default: // a string, json.Number, bool or nil, which always re-encodes
		text, _ := json.Marshal(v)
		out[point+path] = string(text)
	}
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
			len(bad), strings.Join(bad, "\n  "))
	}
	return nil
}
