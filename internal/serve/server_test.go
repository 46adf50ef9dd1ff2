package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime/metrics"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/vec"
)

// testHTTP builds a service behind an httptest server.
func testHTTP(t *testing.T, engines, queueDepth int) (*httptest.Server, *Service) {
	t.Helper()
	svc, _ := testService(t, engines, queueDepth)
	srv := httptest.NewServer(NewServer(svc))
	t.Cleanup(srv.Close)
	return srv, svc
}

func postJob(t *testing.T, url string, spec JobSpec) (*http.Response, JobStatus) {
	t.Helper()
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	resp.Body.Close()
	return resp, st
}

func TestHTTPSubmitStreamComplete(t *testing.T) {
	srv, _ := testHTTP(t, 2, 8)
	spec := quickJob(1000, 10)
	spec.SnapshotEvery = 2
	resp, st := postJob(t, srv.URL, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	if st.SchemaVersion != JobSchemaVersion || st.ID == "" || st.State == "" {
		t.Fatalf("bad accepted status: %+v", st)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+st.ID {
		t.Fatalf("Location %q", loc)
	}

	stream, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	var recs []SnapshotRecord
	sc := bufio.NewScanner(stream.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var rec SnapshotRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("empty stream")
	}
	final := recs[len(recs)-1]
	if !final.Final || final.State != StateDone || final.Error != "" {
		t.Fatalf("final record: %+v", final)
	}
	// Steps 0,2,...,10 -> 6 snapshots + final.
	if want := 7; len(recs) != want {
		t.Errorf("stream length %d, want %d", len(recs), want)
	}

	// Status endpoint agrees.
	got, err := http.Get(srv.URL + "/v1/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Body.Close()
	var fin JobStatus
	if err := json.NewDecoder(got.Body).Decode(&fin); err != nil {
		t.Fatal(err)
	}
	if fin.State != StateDone || fin.Snapshots != 6 {
		t.Fatalf("final status: %+v", fin)
	}
}

func TestHTTPQueueFull429(t *testing.T) {
	srv, svc := testHTTP(t, 1, 1)
	long := quickJob(256, 5000)
	// Submit long jobs until one bounces: engine + depth-1 queue saturate
	// well before five instant POSTs complete.
	var bounced *http.Response
	for i := 0; i < 5 && bounced == nil; i++ {
		resp, _ := postJob(t, srv.URL, long)
		switch resp.StatusCode {
		case http.StatusAccepted:
		case http.StatusTooManyRequests:
			bounced = resp
		default:
			t.Fatalf("submit %d: status %d", i, resp.StatusCode)
		}
	}
	if bounced == nil {
		t.Fatal("no submit bounced with 429 over a saturated depth-1 queue")
	}
	if bounced.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	for _, st := range svc.Jobs() {
		svc.Cancel(st.ID)
	}
	for _, st := range svc.Jobs() {
		await(t, svc, st.ID)
	}
}

func TestHTTPCancelViaDelete(t *testing.T) {
	srv, svc := testHTTP(t, 1, 4)
	_, st := postJob(t, srv.URL, quickJob(256, 100000))
	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d", resp.StatusCode)
	}
	got := await(t, svc, st.ID)
	if got.State != StateCancelled {
		t.Fatalf("state %s, want cancelled", got.State)
	}
}

func TestHTTPBadSpec400AndUnknownJob404(t *testing.T) {
	srv, _ := testHTTP(t, 1, 4)
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader([]byte(`{"plan":"no-such-plan","steps":1,"dt":0.1,"workload":{"kind":"plummer","n":8}}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad plan: status %d, want 400", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/v1/jobs/job-999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", resp.StatusCode)
	}
}

func TestHTTPHealthMetricsDebug(t *testing.T) {
	srv, svc := testHTTP(t, 2, 8)
	_, st := postJob(t, srv.URL, quickJob(64, 10))
	await(t, svc, st.ID)

	var health healthView
	getJSON(t, srv.URL+"/healthz", &health)
	if !health.OK || health.HealthyEngines != 2 {
		t.Fatalf("health: %+v", health)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := metrics.Counters["serve.jobs.accepted"]; got < 1 {
		t.Fatalf("serve.jobs.accepted = %d, want >= 1 (counters: %v)", got, metrics.Counters)
	}

	var dbg debugView
	getJSON(t, srv.URL+"/debug/serve", &dbg)
	if len(dbg.Pool) != 2 || dbg.QueueCap != 8 || len(dbg.Jobs) == 0 {
		t.Fatalf("debug: %+v", dbg)
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func TestHTTPDrainServesFinalRecords(t *testing.T) {
	srv, svc := testHTTP(t, 1, 4)
	_, st := postJob(t, srv.URL, quickJob(64, 50))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Submissions now bounce with 503...
	resp, _ := postJob(t, srv.URL, quickJob(64, 10))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while drained: %d, want 503", resp.StatusCode)
	}
	// ...but the drained job's stream still replays to its final record.
	stream, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	sc := bufio.NewScanner(stream.Body)
	var last SnapshotRecord
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatal(err)
		}
	}
	if !last.Final || last.State != StateDone {
		t.Fatalf("drained job's stream ends with %+v", last)
	}
}

// --- schema round-trips (satellite: schema_version everywhere) ---

func TestJobSpecRoundTrip(t *testing.T) {
	spec := JobSpec{
		SchemaVersion:  JobSchemaVersion,
		Plan:           "jw-parallel",
		Scenario:       &ScenarioSpec{Name: "plummer", N: 512, Seed: 7},
		Steps:          40,
		DT:             0.005,
		SnapshotEvery:  10,
		Integrator:     "hermite",
		DTMin:          1.0 / 4096,
		DTMax:          0.005,
		Eta:            0.02,
		Theta:          0.7,
		Eps:            0.02,
		Pipeline:       "overlap",
		PipelineWindow: 4,
		TimeoutMS:      1234,
		Tolerances:     &ToleranceSpec{Energy: 1e-2, Momentum: 1e-3},
	}
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeJobSpec(data, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec, got) {
		t.Fatalf("round trip changed the spec:\n in %+v\nout %+v", spec, got)
	}
}

// TestJobSpecV1Upgrade pins the legacy decode path: a v1 workload/bodies
// document decodes into the equivalent v2 scenario spec, field for field.
func TestJobSpecV1Upgrade(t *testing.T) {
	v1 := []byte(`{
		"schema_version": 1,
		"plan": "i-parallel",
		"workload": {"kind": "disk", "n": 128, "seed": 9},
		"steps": 20,
		"dt": 0.01,
		"snapshot_every": 5,
		"integrator": "verlet",
		"eps": 0.02,
		"timeout_ms": 500,
		"tolerances": {"energy": 0.01}
	}`)
	got, err := DecodeJobSpec(v1, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	want := JobSpec{
		SchemaVersion: JobSchemaVersion,
		Plan:          "i-parallel",
		Scenario:      &ScenarioSpec{Name: "disk", N: 128, Seed: 9},
		Steps:         20,
		DT:            0.01,
		SnapshotEvery: 5,
		Integrator:    "verlet",
		Eps:           0.02,
		TimeoutMS:     500,
		Tolerances:    &ToleranceSpec{Energy: 0.01},
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("v1 upgrade mismatch:\nwant %+v\n got %+v", want, got)
	}

	// An explicit-bodies v1 document becomes the explicit scenario.
	v1b := []byte(`{"plan":"i-parallel","steps":1,"dt":0.01,
		"bodies":[{"pos":[1,0,0],"vel":[0,1,0],"mass":1},{"pos":[-1,0,0],"vel":[0,-1,0],"mass":1}]}`)
	gotB, err := DecodeJobSpec(v1b, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if gotB.Scenario == nil || gotB.Scenario.Name != "explicit" || len(gotB.Scenario.Bodies) != 2 {
		t.Fatalf("v1 bodies upgrade: %+v", gotB.Scenario)
	}

	// The upgraded spec must generate the same initial state a v2 spec with
	// the same scenario does — byte identity of the run starts here.
	v2 := got
	sysV1, err := got.System()
	if err != nil {
		t.Fatal(err)
	}
	sysV2, err := v2.System()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sysV1, sysV2) {
		t.Fatal("upgraded v1 and v2 specs generated different systems")
	}
}

func TestJobSpecRejectsWrongSchemaVersion(t *testing.T) {
	spec := quickJob(8, 1)
	spec.SchemaVersion = JobSchemaVersion + 1
	data, _ := json.Marshal(spec)
	if _, err := DecodeJobSpec(data, Limits{}); err == nil {
		t.Fatal("future schema_version accepted")
	}

	// A negative version is no version this service speaks. Read as v1, it
	// would be upgraded to version 2 and accepted.
	for _, doc := range []string{
		`{"schema_version":-5,"plan":"i-parallel","steps":1,"dt":0.1,"workload":{"kind":"plummer","n":8}}`,
		`{"schema_version":-1,"plan":"i-parallel","steps":1,"dt":0.1,"scenario":{"name":"plummer","n":8}}`,
	} {
		if _, err := DecodeJobSpec([]byte(doc), Limits{}); err == nil || !strings.HasPrefix(err.Error(), "schema_version:") {
			t.Errorf("DecodeJobSpec(%s) = %v, want a schema_version: error", doc, err)
		}
	}
	spec.SchemaVersion = -5
	if err := spec.Validate(Limits{}); err == nil || !strings.HasPrefix(err.Error(), "schema_version:") {
		t.Errorf("Validate of schema_version -5 = %v, want a schema_version: error", err)
	}
}

func TestJobSpecRejectsUnknownFields(t *testing.T) {
	if _, err := DecodeJobSpec([]byte(`{"plan":"i-parallel","steps":1,"dt":0.1,"workload":{"kind":"plummer","n":8},"stepz":9}`), Limits{}); err == nil {
		t.Fatal("unknown field accepted")
	}
}

// FuzzDecodeJobSpec checks that decoding never panics, and that every spec
// it accepts survives a round trip: re-encoded with json.Marshal, as the
// version 2 document it now is, it decodes to an equal spec. For an upgraded
// v1 document that makes the upgrade idempotent. Seeds live in
// testdata/fuzz/FuzzDecodeJobSpec.
func FuzzDecodeJobSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := DecodeJobSpec(data, Limits{})
		if err != nil {
			return
		}
		again, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec %+v does not encode: %v", spec, err)
		}
		got, err := DecodeJobSpec(again, Limits{})
		if err != nil {
			t.Fatalf("accepted spec re-encoded as %s is rejected: %v", again, err)
		}
		if !reflect.DeepEqual(spec, got) {
			t.Fatalf("round trip through %s changed the spec:\n in %+v\n    %#v\nout %+v\n    %#v",
				again, spec, spec.Scenario, got, got.Scenario)
		}
	})
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	sn := sim.Snapshot{
		Step: 17, Time: 0.17, Kinetic: 1.5, Potential: -3.25, Total: -1.75,
		Momentum: vec.D3{X: 1e-9, Y: -2e-9, Z: 3e-9}, VirialRatio: 0.46,
		Interactions: 123456, WallSeconds: 0.5,
		EngineSeconds: 0.25, EngineExecutedSeconds: 0.2,
	}
	data, err := json.Marshal(snapshotJSON(sn))
	if err != nil {
		t.Fatal(err)
	}
	var wire SnapshotJSON
	if err := json.Unmarshal(data, &wire); err != nil {
		t.Fatal(err)
	}
	got := sim.Snapshot{
		Step:                  wire.Step,
		Time:                  wire.Time,
		Kinetic:               wire.Kinetic,
		Potential:             wire.Potential,
		Total:                 wire.Total,
		Momentum:              vec.D3{X: wire.Momentum[0], Y: wire.Momentum[1], Z: wire.Momentum[2]},
		VirialRatio:           wire.VirialRatio,
		Interactions:          wire.Interactions,
		WallSeconds:           wire.WallSeconds,
		EngineSeconds:         wire.EngineSeconds,
		EngineExecutedSeconds: wire.EngineExecutedSeconds,
	}
	if !reflect.DeepEqual(sn, got) {
		t.Fatalf("round trip changed the snapshot:\n in %+v\nout %+v", sn, got)
	}
}

func TestJobSpecValidation(t *testing.T) {
	base := quickJob(64, 10)
	cases := []struct {
		name   string
		mutate func(*JobSpec)
		lim    Limits
	}{
		{"missing plan", func(s *JobSpec) { s.Plan = "" }, Limits{}},
		{"unknown plan", func(s *JobSpec) { s.Plan = "z-parallel" }, Limits{}},
		{"missing scenario", func(s *JobSpec) { s.Scenario = nil }, Limits{}},
		{"unknown scenario", func(s *JobSpec) { s.Scenario.Name = "torus" }, Limits{}},
		{"zero n", func(s *JobSpec) { s.Scenario.N = 0 }, Limits{}},
		{"explicit without bodies", func(s *JobSpec) { s.Scenario = &ScenarioSpec{Name: "explicit"} }, Limits{}},
		{"bodies on generated scenario", func(s *JobSpec) { s.Scenario.Bodies = []BodySpec{{Mass: 1}} }, Limits{}},
		{"scale on non-disk", func(s *JobSpec) { s.Scenario.Scale = 2 }, Limits{}},
		{"side on non-cube", func(s *JobSpec) { s.Scenario.Side = 3 }, Limits{}},
		{"separation on non-collision", func(s *JobSpec) { s.Scenario.Separation = 5 }, Limits{}},
		{"zero steps", func(s *JobSpec) { s.Steps = 0 }, Limits{}},
		{"negative dt", func(s *JobSpec) { s.DT = -1 }, Limits{}},
		{"bad integrator", func(s *JobSpec) { s.Integrator = "rk9" }, Limits{}},
		{"block fields without hermite", func(s *JobSpec) { s.Eta = 0.02 }, Limits{}},
		{"dt_min above dt_max", func(s *JobSpec) {
			s.Integrator = "hermite"
			s.DTMin, s.DTMax = 0.1, 0.01
		}, Limits{}},
		{"bad pipeline", func(s *JobSpec) { s.Pipeline = "turbo" }, Limits{}},
		{"over body limit", func(s *JobSpec) {}, Limits{MaxBodies: 32}},
		{"over step limit", func(s *JobSpec) {}, Limits{MaxSteps: 5}},
		{"too many devices", func(s *JobSpec) { s.Plan = "jw-parallel-x9223372036854775807" },
			Limits{MaxBodies: 64, MaxSteps: 10}},
		{"device count with leading zero", func(s *JobSpec) { s.Plan = "jw-parallel-x02" },
			Limits{MaxBodies: 64, MaxSteps: 10}},
	}
	for _, tc := range cases {
		spec := base
		sc := *base.Scenario
		spec.Scenario = &sc
		tc.mutate(&spec)
		if err := spec.Validate(tc.lim); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if err := base.Validate(Limits{MaxBodies: 64, MaxSteps: 10}); err != nil {
		t.Errorf("at-limit spec rejected: %v", err)
	}
}

func TestUploadedBodiesJob(t *testing.T) {
	svc, _ := testService(t, 1, 4)
	bodies := make([]BodySpec, 32)
	for i := range bodies {
		bodies[i] = BodySpec{
			Pos:  [3]float32{float32(i) * 0.1, float32(i%3) * 0.2, float32(i%5) * 0.3},
			Vel:  [3]float32{0, 0.01, 0},
			Mass: 1.0 / 32,
		}
	}
	spec := JobSpec{
		SchemaVersion: JobSchemaVersion,
		Plan:          "i-parallel",
		Scenario:      &ScenarioSpec{Name: "explicit", Bodies: bodies},
		Steps:         5,
		DT:            0.01,
	}
	st, err := svc.SubmitTraced(spec, obs.TraceContext{})
	if err != nil {
		t.Fatal(err)
	}
	got := await(t, svc, st.ID)
	if got.State != StateDone {
		t.Fatalf("uploaded-bodies job: state %s, error %q", got.State, got.Error)
	}
	if got.N != 32 {
		t.Fatalf("N %d, want 32", got.N)
	}
}

func TestWatchdogViolationFailsWithoutRetry(t *testing.T) {
	svc, pool := testService(t, 2, 4)
	st, err := svc.SubmitTraced(haltingJob(), obs.TraceContext{})
	if err != nil {
		t.Fatal(err)
	}
	got := await(t, svc, st.ID)
	if got.State != StateFailed {
		t.Fatalf("state %s, want failed", got.State)
	}
	if got.Retries != 0 {
		t.Fatalf("physics violation retried %d times; it is deterministic", got.Retries)
	}
	if h := pool.Healthy(); h != 2 {
		t.Fatalf("healthy %d, want 2 — a physics violation must not quarantine the engine", h)
	}
}

// stopsOutsideGC returns how many times this process has stopped the world
// for something other than garbage collection: runtime.ReadMemStats,
// runtime.GOMAXPROCS, a goroutine profile and the like. No test of this
// package runs in parallel, so while a test runs no other test of the
// process can add to it.
func stopsOutsideGC() uint64 {
	s := []metrics.Sample{{Name: "/sched/pauses/total/other:seconds"}}
	metrics.Read(s)
	var n uint64
	for _, c := range s[0].Value.Float64Histogram().Counts {
		n += c
	}
	return n
}

// TestHTTPJobStopsNoWorld is sim's TestRunContextStopsNoWorld through the
// service: a jw-parallel job posted over HTTP, streamed to its final record
// and its perf attribution fetched adds no sample to the runtime's
// histogram of pauses outside garbage collection. A stop anywhere on a
// job's path (obs, the perf attribution, streaming) fails it.
func TestHTTPJobStopsNoWorld(t *testing.T) {
	srv, _ := testHTTP(t, 2, 8)
	spec := quickJob(256, 4)
	spec.Plan = "jw-parallel"
	spec.SnapshotEvery = 1
	before := stopsOutsideGC()
	resp, st := postJob(t, srv.URL, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	recs := streamRecords(t, srv.URL, st.ID)
	var perf JobPerf
	getJSON(t, srv.URL+"/v1/jobs/"+st.ID+"/perf", &perf)
	stops := stopsOutsideGC() - before
	if final := recs[len(recs)-1]; !final.Final || final.State != StateDone || len(recs) != 6 {
		t.Fatalf("%d records, final %+v; want 5 snapshots and a done final record", len(recs), final)
	}
	if perf.SchemaVersion != JobPerfSchemaVersion || perf.JobID != st.ID {
		t.Fatalf("perf attribution %+v, want job %s's", perf, st.ID)
	}
	if stops != 0 {
		t.Fatalf("one job stopped the world %d times outside garbage collection, want 0", stops)
	}
}
