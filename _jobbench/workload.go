package main

import (
	"encoding/json"
	"fmt"
	"math"
	"regexp"

	"repro/internal/serve"
	"repro/internal/sim"
)

// workload is one seeded job mix. The program under test sees only the
// generated JobSpec documents: the seed picks every job's initial-condition
// realization, while the structure (plans, scenarios, sizes) is fixed.
type workload struct {
	name string
	why  string
	// jobsPerSecond sizes a run: a run of s seconds submits
	// round(s*jobsPerSecond) jobs, at least minJobs. The count is fixed
	// before the run starts, so every count and modelled figure of a seed
	// repeats exactly.
	jobsPerSecond float64
	// spec builds job k; generate fills in the schema version and seed.
	spec func(k int) serve.JobSpec
}

// Each mix spreads N evenly over a range instead of a few sizes, so job
// latencies form a continuum and no percentile sits on a gap between
// clusters of job sizes.
var workloads = []workload{
	{
		name: "small-jobs",
		why: "short leapfrog jobs over i-, w- and jw-parallel, all five scenarios, N 256-512: " +
			"fixed per-job and per-snapshot costs (HTTP, JSON, queue, stream, obs, perf) dominate",
		jobsPerSecond: 40,
		spec: func(k int) serve.JobSpec {
			plans := []string{"i-parallel", "w-parallel", "jw-parallel"}
			scenarios := sim.ScenarioNames()
			k, plan := k/len(plans), plans[k%len(plans)]
			k, scenario := k/len(scenarios), scenarios[k%len(scenarios)]
			return serve.JobSpec{
				Plan:          plan,
				Scenario:      &serve.ScenarioSpec{Name: scenario, N: 256 + 32*(k%9)},
				Steps:         8,
				DT:            1.0 / 128,
				SnapshotEvery: 2,
			}
		},
	},
	{
		name: "paper-jw",
		why: "the paper's jw-parallel plan on Plummer/Hernquist at N 1920-2176, one overlapped step: " +
			"gpusim kernel execution dominates, the host tree/list build is second",
		jobsPerSecond: 10,
		spec: func(k int) serve.JobSpec {
			return serve.JobSpec{
				Plan:     "jw-parallel",
				Scenario: &serve.ScenarioSpec{Name: []string{"plummer", "hernquist"}[k%2], N: 1920 + 64*(k/2%5)},
				Steps:    1,
				DT:       1.0 / 128,
				Pipeline: "overlap",
			}
		},
	},
	{
		name: "hermite-block",
		why: "Hermite block-timestep jobs on i-parallel, collision/Plummer at N 64-128, ~65 jerk launches " +
			"a job over small active blocks: per-launch cost dominates",
		jobsPerSecond: 10,
		spec: func(k int) serve.JobSpec {
			return serve.JobSpec{
				Plan:       "i-parallel",
				Scenario:   &serve.ScenarioSpec{Name: []string{"collision", "plummer"}[k%2], N: 64 + 16*(k/2%5)},
				Steps:      1,
				DT:         1.0 / 16,
				Integrator: "hermite",
			}
		},
	},
}

// minJobs keeps ten samples beyond every run's p90 latency.
const minJobs = 100

// nameRE is the shape of every workload and metric name.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// lookupWorkload finds a workload by name.
func lookupWorkload(name string) (workload, error) {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

// jobCount is the number of jobs a run of the given length submits.
func (w workload) jobCount(seconds int) int {
	return max(minJobs, int(math.Round(float64(seconds)*w.jobsPerSecond)))
}

// splitmix64 is the SplitMix64 finalizer, a fixed well-mixed map from
// (seed, job index) to an initial-condition seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// jobSeed is job k's initial-condition seed under the workload seed; never
// zero, which would select the spec default.
func jobSeed(seed uint64, k int) uint64 {
	return max(1, splitmix64(seed^splitmix64(uint64(k)+1)))
}

// generate returns the run's job list as JobSpec v2 documents.
func (w workload) generate(seed uint64, jobs int) ([][]byte, error) {
	docs := make([][]byte, jobs)
	for k := range docs {
		spec := w.spec(k)
		spec.SchemaVersion = serve.JobSchemaVersion
		spec.Scenario.Seed = jobSeed(seed, k)
		b, err := json.Marshal(spec)
		if err != nil {
			return nil, fmt.Errorf("encode job %d: %w", k, err)
		}
		docs[k] = b
	}
	return docs, nil
}

// plansOf lists the plans the job list uses, in order of first use.
func plansOf(specs []serve.JobSpec) []string {
	var plans []string
	seen := map[string]bool{}
	for _, spec := range specs {
		if !seen[spec.Plan] {
			seen[spec.Plan] = true
			plans = append(plans, spec.Plan)
		}
	}
	return plans
}

// warmupDoc is the one-step job set-up submits to warm a plan on an engine
// slot: the first job of that plan in the mix, cut to one step.
func (w workload) warmupDoc(plan string) ([]byte, error) {
	for k := 0; k < 64; k++ {
		spec := w.spec(k)
		if spec.Plan != plan {
			continue
		}
		spec.SchemaVersion = serve.JobSchemaVersion
		spec.Steps = 1
		spec.SnapshotEvery = 0
		return json.Marshal(spec)
	}
	return nil, fmt.Errorf("workload %s never submits plan %s", w.name, plan)
}
