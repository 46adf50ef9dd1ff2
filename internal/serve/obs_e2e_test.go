package serve

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/gpusim"
	"repro/internal/obs"
)

// TestJobPerfAttributionSumsToMakespan is the tentpole's end-to-end check:
// after a job finishes, its perf attribution covers the schedule that
// actually executed — the per-stage seconds sum to the serial total, and
// under pipeline mode "serial" (no overlap) that total IS the executed
// makespan. It holds on every kind of plan: the Go PP and treecode kernels,
// the multi-device plan (its slowest device's schedule) and an OpenCL C
// source plan (small N: the interpreter is slow).
func TestJobPerfAttributionSumsToMakespan(t *testing.T) {
	svc, _ := testService(t, 1, 4)
	for _, tc := range []struct {
		plan     string
		n, steps int
	}{
		{"i-parallel", 256, 20},
		{"jw-parallel", 256, 20},
		{"jw-parallel-x2", 256, 20},
		{"j-parallel-src", 64, 3},
	} {
		t.Run(tc.plan, func(t *testing.T) {
			spec := quickJob(tc.n, tc.steps)
			spec.Plan = tc.plan
			st, err := svc.SubmitTraced(spec, obs.TraceContext{})
			if err != nil {
				t.Fatal(err)
			}
			final := await(t, svc, st.ID)
			if final.State != StateDone {
				t.Fatalf("job state %s, error %q", final.State, final.Error)
			}

			p, err := svc.JobPerf(st.ID)
			if err != nil {
				t.Fatal(err)
			}
			if p.SchemaVersion != JobPerfSchemaVersion || p.JobID != st.ID || p.TraceID != final.TraceID {
				t.Fatalf("perf identity: %+v", p)
			}
			if p.ScheduleSpans == 0 || p.Attribution.Spans != p.ScheduleSpans {
				t.Fatalf("schedule spans %d, attribution spans %d", p.ScheduleSpans, p.Attribution.Spans)
			}
			var stageSum float64
			for _, sec := range p.Attribution.StageSeconds {
				stageSum += sec
			}
			if stageSum <= 0 {
				t.Fatal("no stage time attributed")
			}
			relErr := func(a, b float64) float64 { return math.Abs(a-b) / math.Max(a, b) }
			if relErr(stageSum, p.Attribution.SerialSeconds) > 1e-9 {
				t.Fatalf("stage sum %.9g != serial %.9g", stageSum, p.Attribution.SerialSeconds)
			}
			// Serial pipeline: every stage runs back to back, so the executed
			// makespan equals the serial sum of the stage breakdown (tolerance
			// for float accumulation order).
			if relErr(stageSum, p.Attribution.MakespanSeconds) > 1e-6 {
				t.Fatalf("stage sum %.9g vs executed makespan %.9g: breakdown does not cover the timeline",
					stageSum, p.Attribution.MakespanSeconds)
			}
			if p.Evaluations <= 0 || p.Flops <= 0 || p.KernelSeconds <= 0 {
				t.Fatalf("engine deltas: evals %d flops %d kernel %.3g", p.Evaluations, p.Flops, p.KernelSeconds)
			}
			if p.DeviceFill <= 0 || p.DeviceFill > 1 {
				t.Fatalf("device fill %g out of (0,1]", p.DeviceFill)
			}

			// The JobStatus rollup mirrors the attribution.
			if final.Perf == nil {
				t.Fatal("JobStatus.Perf missing after completion")
			}
			if final.Perf.MakespanSeconds != p.Attribution.MakespanSeconds ||
				final.Perf.CriticalSide != p.Attribution.CriticalSide {
				t.Fatalf("status summary %+v does not match attribution %+v", final.Perf, p.Attribution)
			}
		})
	}

	// A queued/running or unknown job has no attribution: not found.
	if _, err := svc.JobPerf("job-999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown job perf: %v, want ErrNotFound", err)
	}
}

// TestJobPerfIndependentOfEngineHistory runs one spec on a fresh engine
// slot, then a different job on the same slot's cached engine, then the
// spec again: both runs of the spec must report the same bits in their
// modelled seconds and the same flops. The totals are the attempt's own,
// summed from zero, not differences of the engine's running totals, whose
// last bits would depend on the jobs that ran before.
func TestJobPerfIndependentOfEngineHistory(t *testing.T) {
	svc, _ := testService(t, 1, 4)
	spec := quickJob(200, 6)
	spec.Plan = "jw-parallel"
	spec.Pipeline = "overlap"
	other := quickJob(333, 5)
	other.Plan = "jw-parallel"
	other.Scenario.Seed = 2
	var runs []*JobPerf
	for _, s := range []JobSpec{spec, other, spec} {
		st, err := svc.SubmitTraced(s, obs.TraceContext{})
		if err != nil {
			t.Fatal(err)
		}
		if final := await(t, svc, st.ID); final.State != StateDone {
			t.Fatalf("job state %s, error %q", final.State, final.Error)
		}
		p, err := svc.JobPerf(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, p)
	}
	a, b := runs[0], runs[2]
	for _, f := range []struct {
		name     string
		got, was float64
	}{
		{"kernel_seconds", b.KernelSeconds, a.KernelSeconds},
		{"transfer_seconds", b.TransferSeconds, a.TransferSeconds},
		{"host_seconds", b.HostSeconds, a.HostSeconds},
		{"executed_seconds", b.ExecutedSeconds, a.ExecutedSeconds},
	} {
		if math.Float64bits(f.got) != math.Float64bits(f.was) {
			t.Errorf("%s: %v after another job, %v on a fresh slot", f.name, f.got, f.was)
		}
	}
	if b.Flops != a.Flops || b.Evaluations != a.Evaluations {
		t.Errorf("flops %d and evaluations %d after another job, %d and %d on a fresh slot",
			b.Flops, b.Evaluations, a.Flops, a.Evaluations)
	}
}

// TestHTTPPerfAndStats drives the two new read surfaces over HTTP.
func TestHTTPPerfAndStats(t *testing.T) {
	srv, svc := testHTTP(t, 1, 4)
	_, st := postJob(t, srv.URL, quickJob(128, 10))
	await(t, svc, st.ID)

	resp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/perf")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("perf: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Trace-Id"); got != st.TraceID {
		t.Fatalf("perf X-Trace-Id %q, want %q", got, st.TraceID)
	}
	var p JobPerf
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		t.Fatal(err)
	}
	if p.JobID != st.ID || p.Attribution.MakespanSeconds <= 0 {
		t.Fatalf("perf body: %+v", p)
	}

	var sv StatsView
	getJSON(t, srv.URL+"/v1/stats", &sv)
	if sv.SchemaVersion != JobSchemaVersion || sv.Jobs.Accepted < 1 || sv.Jobs.Done < 1 {
		t.Fatalf("stats: %+v", sv)
	}
	if sv.Pool.Size != 1 || sv.Pool.Healthy != 1 {
		t.Fatalf("stats pool: %+v", sv.Pool)
	}

	// No bundle store configured: the index is 404, same as an unknown bundle.
	for _, path := range []string{"/v1/debug/bundles", "/v1/debug/bundles/bundle-1-001"} {
		r2, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r2.Body.Close()
		if r2.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s without store: status %d, want 404", path, r2.StatusCode)
		}
	}
}

// sloBurnService builds a service whose job_latency SLO cannot be met (a
// microsecond threshold), so the first finished job trips the burn alarm.
func sloBurnService(t *testing.T) (*Service, *obs.Obs, *obs.BundleStore) {
	t.Helper()
	o := obs.New()
	pool, err := NewPool(1, gpusim.TestDevice(), o)
	if err != nil {
		t.Fatal(err)
	}
	bundles, err := obs.NewBundleStore(t.TempDir(), obs.BundleOptions{
		CPUProfile: -1, // keep the test fast: no 200ms sampling pause
		Obs:        o,
	})
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService(ServiceConfig{
		Engines:        1,
		QueueDepth:     4,
		DefaultTimeout: time.Minute,
		Obs:            o,
		SLOs: SLOSpec{Objectives: []SLOObjectiveSpec{{
			Signal:      SignalJobLatency,
			Target:      0.99,
			ThresholdMS: 0.001, // any real job is slower than 1µs: guaranteed bad
			WindowsMS:   []int64{1000, 2000},
		}}},
		Bundles: bundles,
	}, pool)
	return svc, o, bundles
}

// TestSLOBurnCapturesExactlyOneBundle is the sentinel's end-to-end check: a
// synthetic burn produces exactly one debug bundle, and the job's trace id
// appears in the bundle's flight ring, its merged Chrome trace, and the
// OpenMetrics exemplar of the latency histogram — one id joins all three.
func TestSLOBurnCapturesExactlyOneBundle(t *testing.T) {
	svc, o, bundles := sloBurnService(t)

	st, err := svc.SubmitTraced(quickJob(64, 5), obs.TraceContext{})
	if err != nil {
		t.Fatal(err)
	}
	final := await(t, svc, st.ID)
	if final.State != StateDone {
		t.Fatalf("job state %s, error %q", final.State, final.Error)
	}
	// The SLO observation and bundle capture run after the terminal state is
	// published, so give them a moment to land.
	waitFor(t, "bundle capture", func() bool { return len(bundles.List()) == 1 })

	// The scrape side of the same correlation: the latency histogram's
	// OpenMetrics exemplar names the job's trace. (Checked before the second
	// job below lands in the same bucket and replaces the exemplar.)
	openMetrics := func() string {
		var om bytes.Buffer
		if err := o.Metrics.WriteOpenMetrics(&om); err != nil {
			t.Fatal(err)
		}
		return om.String()
	}
	if om := openMetrics(); !strings.Contains(om, `# {trace_id="`+st.TraceID+`"}`) {
		t.Fatal("openmetrics exposition has no exemplar with the job's trace id")
	}

	// A second job also misses the SLO, but the alarm is already up (no rising
	// edge): still exactly one bundle. TotalBad reaching 2 proves the second
	// observation happened without a capture.
	st2, err := svc.SubmitTraced(quickJob(64, 5), obs.TraceContext{})
	if err != nil {
		t.Fatal(err)
	}
	await(t, svc, st2.ID)
	waitFor(t, "second SLO observation", func() bool {
		sv := svc.Stats()
		return len(sv.SLOs) == 1 && sv.SLOs[0].TotalBad >= 2
	})

	list := bundles.List()
	if len(list) != 1 {
		t.Fatalf("captured %d bundles, want exactly 1: %+v", len(list), list)
	}
	info := list[0]
	if info.Reason != "slo-burn:"+SignalJobLatency {
		t.Fatalf("bundle reason %q", info.Reason)
	}
	if info.JobID != st.ID || info.TraceID != st.TraceID {
		t.Fatalf("bundle attribution %+v, want job %s trace %s", info, st.ID, st.TraceID)
	}

	members := readBundle(t, bundles, info.ID)
	for _, name := range []string{"meta.json", "flight.json", "trace.json", "status.json", "goroutines.txt"} {
		if _, ok := members[name]; !ok {
			t.Fatalf("bundle missing %s (has %v)", name, info.Files)
		}
	}
	var fv FlightView
	if err := json.Unmarshal(members["flight.json"], &fv); err != nil {
		t.Fatal(err)
	}
	if fv.TraceID != st.TraceID {
		t.Fatalf("bundled flight trace id %q, want %q", fv.TraceID, st.TraceID)
	}
	var sawBurn bool
	for _, ev := range fv.Events {
		if ev.Name == "slo-burn" {
			sawBurn = true
		}
	}
	if !sawBurn {
		t.Fatalf("flight ring has no slo-burn event: %+v", fv.Events)
	}
	if !bytes.Contains(members["trace.json"], []byte(st.TraceID)) {
		t.Fatal("bundled Chrome trace does not carry the job's trace id")
	}

	// The sentinel's gauges are on the scrape surface too.
	om := openMetrics()
	for _, metric := range []string{
		"nbody_slo_job_latency_burn_rate",
		"nbody_slo_job_latency_burning 1",
	} {
		if !strings.Contains(om, metric) {
			t.Fatalf("openmetrics exposition missing %s", metric)
		}
	}

	// The rollup reflects the live alarm and the capture.
	sv := svc.Stats()
	if len(sv.SLOs) != 1 || sv.SLOs[0].Name != SignalJobLatency || !sv.SLOs[0].Burning {
		t.Fatalf("stats SLOs: %+v", sv.SLOs)
	}
	if len(sv.Bundles) != 1 || sv.Bundles[0].ID != info.ID {
		t.Fatalf("stats bundles: %+v", sv.Bundles)
	}
}

// TestHTTPBundleDownload round-trips a captured bundle over the HTTP index
// and download routes.
func TestHTTPBundleDownload(t *testing.T) {
	svc, _, bundles := sloBurnService(t)
	srv := httptest.NewServer(NewServer(svc))
	t.Cleanup(srv.Close)

	_, st := postJob(t, srv.URL, quickJob(64, 5))
	await(t, svc, st.ID)
	waitFor(t, "bundle capture", func() bool { return len(bundles.List()) == 1 })

	var list []obs.BundleInfo
	getJSON(t, srv.URL+"/v1/debug/bundles", &list)
	if len(list) != 1 {
		t.Fatalf("HTTP bundle index: %+v", list)
	}

	resp, err := http.Get(srv.URL + "/v1/debug/bundles/" + list[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("download: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/gzip" {
		t.Fatalf("download content type %q", ct)
	}
	if got := resp.Header.Get("X-Trace-Id"); got != st.TraceID {
		t.Fatalf("download X-Trace-Id %q, want %q", got, st.TraceID)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if want := strconv.Itoa(len(body)); resp.Header.Get("Content-Length") != want {
		t.Fatalf("Content-Length %s, body %s bytes", resp.Header.Get("Content-Length"), want)
	}
	members := readTarGz(t, bytes.NewReader(body))
	if _, ok := members["flight.json"]; !ok {
		t.Fatalf("downloaded archive members: %v", keys(members))
	}

	r2, err := http.Get(srv.URL + "/v1/debug/bundles/bundle-0-000")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown bundle: status %d, want 404", r2.StatusCode)
	}
}

// readBundle opens a stored bundle and returns its archive members.
func readBundle(t *testing.T, store *obs.BundleStore, id string) map[string][]byte {
	t.Helper()
	rc, _, err := store.Open(id)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	return readTarGz(t, rc)
}

func readTarGz(t *testing.T, r io.Reader) map[string][]byte {
	t.Helper()
	gz, err := gzip.NewReader(r)
	if err != nil {
		t.Fatal(err)
	}
	defer gz.Close()
	members := map[string][]byte{}
	tr := tar.NewReader(gz)
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(tr)
		if err != nil {
			t.Fatal(err)
		}
		members[hdr.Name] = data
	}
	return members
}

func keys(m map[string][]byte) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestErrorResponsesCarryTraceID checks the satellite: rejections (404, 429,
// 503) echo the caller's inbound trace id, so a client can join the refusal
// to its own trace even though no job exists to stamp it from.
func TestErrorResponsesCarryTraceID(t *testing.T) {
	srv, svc := testHTTP(t, 1, 1)
	const tp = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	const wantTrace = "0af7651916cd43dd8448eb211c80319c"

	do := func(method, path string, body []byte) *http.Response {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("traceparent", tp)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}

	// 404: unknown job.
	resp := do(http.MethodGet, "/v1/jobs/job-999", nil)
	if resp.StatusCode != http.StatusNotFound || resp.Header.Get("X-Trace-Id") != wantTrace {
		t.Fatalf("404: status %d, X-Trace-Id %q", resp.StatusCode, resp.Header.Get("X-Trace-Id"))
	}

	// 429: fill the single engine + depth-1 queue with long jobs, then submit.
	long, err := json.Marshal(quickJob(256, 100000))
	if err != nil {
		t.Fatal(err)
	}
	var got429 *http.Response
	for i := 0; i < 5 && got429 == nil; i++ {
		resp := do(http.MethodPost, "/v1/jobs", long)
		if resp.StatusCode == http.StatusTooManyRequests {
			got429 = resp
		} else if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, resp.StatusCode)
		}
	}
	if got429 == nil {
		t.Fatal("queue never filled")
	}
	if got429.Header.Get("X-Trace-Id") != wantTrace {
		t.Fatalf("429 X-Trace-Id %q, want %q", got429.Header.Get("X-Trace-Id"), wantTrace)
	}
	if got429.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// Unblock and drain, then: 503 while draining.
	for _, st := range svc.Jobs() {
		svc.Cancel(st.ID)
	}
	for _, st := range svc.Jobs() {
		await(t, svc, st.ID)
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Drain(drainCtx); err != nil {
		t.Fatal(err)
	}
	resp = do(http.MethodPost, "/v1/jobs", long)
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("X-Trace-Id") != wantTrace {
		t.Fatalf("503: status %d, X-Trace-Id %q", resp.StatusCode, resp.Header.Get("X-Trace-Id"))
	}
}

// TestRetryAfterStableUnderSustained429s: every rejection of a sustained
// submit burst carries the configured Retry-After hint — clients backing off
// by the header get a consistent answer, not a flapping one.
func TestRetryAfterStableUnderSustained429s(t *testing.T) {
	svc, _ := testService(t, 1, 1)
	handler := NewServer(svc)
	handler.RetryAfterSeconds = 7
	srv := httptest.NewServer(handler)
	t.Cleanup(srv.Close)

	long, err := json.Marshal(quickJob(256, 100000))
	if err != nil {
		t.Fatal(err)
	}
	rejected := 0
	for i := 0; i < 12; i++ {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(long))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted:
		case http.StatusTooManyRequests:
			rejected++
			if got := resp.Header.Get("Retry-After"); got != "7" {
				t.Fatalf("429 #%d Retry-After %q, want \"7\"", rejected, got)
			}
		default:
			t.Fatalf("submit %d: status %d", i, resp.StatusCode)
		}
	}
	if rejected < 5 {
		t.Fatalf("only %d rejections across 12 submits over a full depth-1 queue", rejected)
	}
	for _, st := range svc.Jobs() {
		svc.Cancel(st.ID)
	}
	for _, st := range svc.Jobs() {
		await(t, svc, st.ID)
	}
}

// TestDrainForcedCancelFlightOrdering checks the drain path's black box: when
// the drain deadline forces a cancel, the job's flight ring records
// drain-forced-cancel strictly before its terminal finished event.
func TestDrainForcedCancelFlightOrdering(t *testing.T) {
	svc, _ := testService(t, 1, 2)
	st, err := svc.SubmitTraced(quickJob(256, 100000), obs.TraceContext{})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, svc, st.ID)

	// An already-expired drain context forces the cancel immediately.
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if err := svc.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced drain returned %v, want deadline exceeded", err)
	}
	final := await(t, svc, st.ID)
	if final.State != StateCancelled {
		t.Fatalf("forced-drained job state %s", final.State)
	}

	fv, err := svc.Flight(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	forcedAt, finishedAt := -1, -1
	for i, ev := range fv.Events {
		switch ev.Name {
		case "drain-forced-cancel":
			forcedAt = i
		case "finished":
			finishedAt = i
		}
	}
	if forcedAt < 0 || finishedAt < 0 {
		t.Fatalf("flight ring missing events (forced %d, finished %d): %+v", forcedAt, finishedAt, fv.Events)
	}
	if forcedAt >= finishedAt {
		t.Fatalf("drain-forced-cancel at %d is not before finished at %d", forcedAt, finishedAt)
	}
}

// waitFor polls cond until it holds (the post-terminal observability work —
// SLO observation, bundle capture — runs after the job's final state is
// published, so tests wait for its effects rather than the state).
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// waitRunning blocks until the job leaves the queue.
func waitRunning(t *testing.T, svc *Service, id string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st, err := svc.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == StateRunning {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never started", id)
}
