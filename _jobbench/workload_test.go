package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"repro/internal/serve"
)

// TestGenerateDeterministic: the same seed gives byte-identical job lists.
func TestGenerateDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, err := w.generate(42, minJobs)
		if err != nil {
			t.Fatal(err)
		}
		b, err := w.generate(42, minJobs)
		if err != nil {
			t.Fatal(err)
		}
		for k := range a {
			if !bytes.Equal(a[k], b[k]) {
				t.Fatalf("%s job %d differs between two generations:\n%s\n%s", w.name, k, a[k], b[k])
			}
		}
	}
}

// TestGenerateSeedChangesInitialConditions: another seed gives every job
// other initial conditions and leaves the job structure alone.
func TestGenerateSeedChangesInitialConditions(t *testing.T) {
	for _, w := range workloads {
		a, _ := w.generate(1, minJobs)
		b, _ := w.generate(2, minJobs)
		for k := range a {
			sa, err := serve.DecodeJobSpec(a[k], serviceLimits)
			if err != nil {
				t.Fatal(err)
			}
			sb, err := serve.DecodeJobSpec(b[k], serviceLimits)
			if err != nil {
				t.Fatal(err)
			}
			if sa.Scenario.Seed == sb.Scenario.Seed {
				t.Fatalf("%s job %d: seed 1 and 2 give the same initial-condition seed", w.name, k)
			}
			sa.Scenario.Seed = sb.Scenario.Seed
			ja, _ := json.Marshal(sa)
			jb, _ := json.Marshal(sb)
			if !bytes.Equal(ja, jb) {
				t.Fatalf("%s job %d: the seed changed more than the initial conditions", w.name, k)
			}
		}
		sysA, err := mustDecode(t, a[0]).System()
		if err != nil {
			t.Fatal(err)
		}
		sysB, err := mustDecode(t, b[0]).System()
		if err != nil {
			t.Fatal(err)
		}
		if sysA.Pos[0] == sysB.Pos[0] {
			t.Errorf("%s: seeds 1 and 2 generate the same first body", w.name)
		}
	}
}

func mustDecode(t *testing.T, doc []byte) *serve.JobSpec {
	t.Helper()
	spec, err := serve.DecodeJobSpec(doc, serviceLimits)
	if err != nil {
		t.Fatal(err)
	}
	return &spec
}

// TestSpecsDecode: every generated spec, and every warm-up spec, passes the
// service's own decoder under nbodyd's limits.
func TestSpecsDecode(t *testing.T) {
	for _, w := range workloads {
		docs, err := w.generate(3, w.jobCount(10))
		if err != nil {
			t.Fatal(err)
		}
		specs := make([]serve.JobSpec, len(docs))
		for k, doc := range docs {
			specs[k] = *mustDecode(t, doc)
			if specs[k].SchemaVersion != serve.JobSchemaVersion {
				t.Errorf("%s job %d: schema_version %d", w.name, k, specs[k].SchemaVersion)
			}
		}
		for _, plan := range plansOf(specs) {
			doc, err := w.warmupDoc(plan)
			if err != nil {
				t.Fatal(err)
			}
			if got := mustDecode(t, doc); got.Plan != plan || got.Steps != 1 {
				t.Errorf("%s: warm-up spec for %s is %+v", w.name, plan, got)
			}
		}
	}
}

// TestNearestRank pins the nearest-rank percentile: the ceil(p/100*n)-th
// smallest sample.
func TestNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{5, 15}, {30, 20}, {40, 20}, {50, 35}, {90, 50}, {100, 50},
	} {
		if got := nearestRank(xs, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i) // unsorted input
	}
	if got := nearestRank(hundred, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %g, want 90 (ten samples beyond it)", got)
	}
	if got := nearestRank(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %g, want 0", got)
	}
}

// TestBenchmarkJSONMatches: BENCHMARK.json names exactly the workloads and
// metrics the benchmark reports, with the same units and directions, and
// every name has the required shape.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)",
				i, doc.Workloads[i].Name, doc.Workloads[i].Why, w.name, w.why)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %q: bad name or why longer than 200 characters", w.name)
		}
	}
	seen := map[string]bool{}
	for _, set := range []struct {
		json []metric
		defs []metricDef
	}{{doc.EndToEnd, endToEnd}, {doc.PerLayer, perLayer}} {
		if len(set.json) != len(set.defs) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the benchmark %d", len(set.json), len(set.defs))
		}
		for i, d := range set.defs {
			m := set.json[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("metric %d: BENCHMARK.json %+v, benchmark %+v", i, m, d)
			}
			if !nameRE.MatchString(d.name) || len(d.name) > 64 || seen[d.name] {
				t.Errorf("metric %q: bad or repeated name", d.name)
			}
			seen[d.name] = true
		}
	}
	for _, m := range doc.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound must be in (0, 0.25]", m.Name)
		}
	}
}
