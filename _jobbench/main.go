// Command jobbench is the repository's end-to-end benchmark. It runs the
// nbodyd job service in-process (serve.Service behind serve.NewServer on a
// loopback listener, configured like the nbodyd defaults), drives a seeded
// JobSpec v2 job list through the HTTP API in a closed loop with two clients,
// then replays every job in-process through the same public entry points to
// split the wall time by layer and to check that each streamed result equals
// the direct run bit for bit. METRICS.md defines the metrics; BENCHMARK.json
// at the repository root lists the workloads.
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash _jobbench/run.sh --workload small-jobs --seed 1 --seconds 10 --trace 0
//	bash _jobbench/run.sh --workload all --seed 1 --seconds 10
//
// A run prints every metric of its workload, one table row per workload
// ("all" runs each workload in its own process and prints one row each).
// The last line of standard output is a JSON object with correct, attempted,
// failed and the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1); --trace 1 also writes the replay's spans as a Chrome trace
// into the -out directory. The exit status is 1 when any job or check failed.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"repro/internal/gpusim"
	"repro/internal/obs"
	"repro/internal/serve"
)

// setupRepeats is how many times a run sets up; setup_s is their median.
const setupRepeats = 3

func main() {
	var (
		name    = flag.String("workload", "", `workload name, or "all"`)
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 10, "run length; sets the number of jobs")
		trace   = flag.Int("trace", 0, "1: report the per-layer metrics and write the replay trace")
		out     = flag.String("out", ".bench_build", "directory for the trace and result files")
		resOut  = flag.String("result", "", "also write the full result as JSON to this file")
	)
	flag.Parse()
	if *name == "all" {
		os.Exit(runAll(*seed, *seconds, *out))
	}
	w, err := lookupWorkload(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "jobbench: bad arguments (workload %q, seconds %d, trace %d): %v\n", *name, *seconds, *trace, err)
		os.Exit(2)
	}
	res, tracer, err := runWorkload(w, *seed, *seconds)
	if err != nil {
		fmt.Fprintf(os.Stderr, "jobbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	printReport(os.Stdout, []*result{res})
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
		if err := writeTrace(tracer, filepath.Join(*out, fmt.Sprintf("trace-%s-%d.json", w.name, *seed))); err != nil {
			fmt.Fprintf(os.Stderr, "jobbench: %v\n", err)
			os.Exit(1)
		}
	}
	if *resOut != "" {
		if err := writeJSON(*resOut, res); err != nil {
			fmt.Fprintf(os.Stderr, "jobbench: %v\n", err)
			os.Exit(1)
		}
	}
	if err := writeOutcome(os.Stdout, res, defs); err != nil {
		fmt.Fprintf(os.Stderr, "jobbench: %v\n", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// setup is what a run prepares before its timed window.
type setup struct {
	svc    *service
	docs   [][]byte
	specs  []serve.JobSpec
	rep    *replayer
	forces []forceCheck
}

// prepare generates the job list, starts the service, warms every engine
// slot and the replay engines, and checks each plan's forces.
func prepare(w workload, seed uint64, jobs int) (*setup, error) {
	docs, err := w.generate(seed, jobs)
	if err != nil {
		return nil, err
	}
	specs := make([]serve.JobSpec, len(docs))
	for k, doc := range docs {
		if specs[k], err = serve.DecodeJobSpec(doc, serviceLimits); err != nil {
			return nil, fmt.Errorf("job %d: %w", k, err)
		}
	}
	svc, err := startService()
	if err != nil {
		return nil, err
	}
	s := &setup{svc: svc, docs: docs, specs: specs, rep: newReplayer(gpusim.HD5850(), engines)}
	plans := plansOf(specs)
	if err := svc.warmUp(w, plans); err != nil {
		_ = svc.close()
		return nil, err
	}
	if s.forces, err = s.rep.checkForces(plans, specs); err != nil {
		_ = svc.close()
		return nil, err
	}
	return s, nil
}

// runWorkload sets up (several times, keeping the last), runs the timed HTTP
// window, replays the jobs and summarizes. It returns the benchmark's tracer.
func runWorkload(w workload, seed uint64, seconds int) (*result, *obs.Tracer, error) {
	jobs := w.jobCount(seconds)
	var s *setup
	walls := make([]float64, setupRepeats)
	for i := range walls {
		if s != nil {
			if err := s.svc.close(); err != nil {
				return nil, nil, err
			}
		}
		start := time.Now()
		var err error
		if s, err = prepare(w, seed, jobs); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		walls[i] = time.Since(start).Seconds()
	}

	runtime.GC()
	spans := len(s.svc.obs.Tracer().Spans())
	served, makespan := drive(s.svc.clients, s.docs)
	spans = len(s.svc.obs.Tracer().Spans()) - spans
	if err := s.svc.close(); err != nil {
		return nil, nil, err
	}

	runtime.GC()
	replayed, replayWall := s.rep.replayAll(s.specs)
	res := summarize(runData{
		workloadName: w.name,
		setupWalls:   walls,
		forces:       s.forces,
		served:       served,
		makespan:     makespan,
		spansPerJob:  float64(spans) / float64(jobs),
		replayed:     replayed,
		replayWall:   replayWall,
		peakRSSMB:    peakRSSMB(),
		specs:        s.specs,
	})
	return res, s.rep.tr, nil
}

// writeTrace writes the benchmark's spans as a Chrome trace.
func writeTrace(tr *obs.Tracer, path string) error {
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, nil, tr.TraceEvents()); err != nil {
		return err
	}
	return writeFile(path, buf.Bytes())
}

func writeJSON(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return writeFile(path, b)
}

func writeFile(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// runAll runs every workload in a process of its own, so each one's peak
// memory is its own, and prints the combined report.
func runAll(seed uint64, seconds int, out string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "jobbench: %v\n", err)
		return 1
	}
	var results []*result
	status := 0
	for _, w := range workloads {
		path := filepath.Join(out, "result-"+w.name+".json")
		_ = os.Remove(path) // a stale file must not stand in for a failed run
		cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.Itoa(seconds), "-out", out, "-result", path)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "jobbench: %s: %v\n", w.name, err)
			status = 1
		}
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			fmt.Fprintf(os.Stderr, "jobbench: %s: %v\n", path, err)
			status = 1
			continue
		}
		results = append(results, &r)
	}
	printReport(os.Stdout, results)
	return status
}
