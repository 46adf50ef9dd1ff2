package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
)

// printReport writes every metric by name with its unit and sample count,
// one row per workload, then the wall-vs-model view of the traced replay and
// its overhead against the untraced HTTP run.
func printReport(w io.Writer, results []*result) {
	printTable(w, "end-to-end (untraced HTTP run)", endToEnd, results)
	for _, layer := range []string{"serve", "obs", "perf", "sim", "integrate", "core", "bh", "gpusim"} {
		var defs []metricDef
		for _, d := range perLayer {
			if strings.HasPrefix(d.name, layer+".") {
				defs = append(defs, d)
			}
		}
		printTable(w, "per-layer: "+layer, defs, results)
	}

	fmt.Fprintf(w, "\nwall vs model (traced replay; model = gpusim.PaperHost host, gpusim kernel+transfer)\n")
	fmt.Fprintf(w, "%-14s %14s %14s %10s %16s %16s %10s\n", "workload",
		"bh wall ms/ev", "bh model ms/ev", "wall/model", "gpusim wall ms/st", "gpusim model ms/st", "wall/model")
	for _, r := range results {
		fmt.Fprintf(w, "%-14s %14.4g %14.4g %10.4g %16.4g %16.4g %10.4g\n", r.Workload,
			r.Metrics["bh.build_ms_per_eval"].Value, r.Metrics["bh.model_ms_per_eval"].Value, r.Metrics["bh.wall_to_model"].Value,
			r.GPUWallMSPerStep, r.GPUModelMSPerStep, ratio(r.GPUWallMSPerStep, r.GPUModelMSPerStep))
	}

	fmt.Fprintf(w, "\ntraced replay vs untraced HTTP run\n")
	for _, r := range results {
		fmt.Fprintf(w, "%-14s replay %.3f s wall (sum of sim.RunContext %.3f s), HTTP run %.3f s makespan (sum of job latency %.3f s): replay/HTTP %.3f\n",
			r.Workload, r.ReplayWallS, r.ReplayRunSumS, r.ServeMakespanS, r.ServeLatencySumS, ratio(r.ReplayWallS, r.ServeMakespanS))
	}

	fmt.Fprintln(w)
	for _, r := range results {
		fmt.Fprintf(w, "%-14s correct=%t attempted=%d failed=%d error_rate=%.4g\n",
			r.Workload, r.Correct, r.Attempted, r.Failed, ratio(float64(r.Failed), float64(r.Attempted)))
		for i, p := range r.Problems {
			if i == 10 {
				fmt.Fprintf(w, "  ... %d more\n", len(r.Problems)-i)
				break
			}
			fmt.Fprintf(w, "  %s\n", p)
		}
	}
}

// printTable writes one table: a column per metric, a row per workload,
// each cell the value and [sample count].
func printTable(w io.Writer, title string, defs []metricDef, results []*result) {
	head := []string{"workload"}
	rows := make([][]string, len(results))
	for i, r := range results {
		rows[i] = []string{r.Workload}
	}
	for _, d := range defs {
		head = append(head, fmt.Sprintf("%s (%s)", d.name, d.unit))
		for i, r := range results {
			s := r.Metrics[d.name]
			rows[i] = append(rows[i], fmt.Sprintf("%.5g [%d]", s.Value, s.N))
		}
	}
	width := make([]int, len(head))
	for c, h := range head {
		width[c] = len(h)
		for _, row := range rows {
			width[c] = max(width[c], len(row[c]))
		}
	}
	fmt.Fprintf(w, "\n%s\n", title)
	for _, row := range append([][]string{head}, rows...) {
		for c, cell := range row {
			fmt.Fprintf(w, "%-*s  ", width[c], cell)
		}
		fmt.Fprintln(w)
	}
}

// outcome is the last line of standard output.
type outcome struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]outMetric `json:"metrics"`
}

type outMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// writeOutcome writes the result line with the given metrics.
func writeOutcome(w io.Writer, r *result, defs []metricDef) error {
	o := outcome{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]outMetric{}}
	for _, d := range defs {
		v := r.Metrics[d.name].Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		o.Metrics[d.name] = outMetric{Value: v, Unit: d.unit}
	}
	b, err := json.Marshal(o)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
