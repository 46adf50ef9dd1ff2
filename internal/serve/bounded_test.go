package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/metrics"
	"testing"
	"time"

	"repro/internal/gpusim"
	"repro/internal/obs"
	"repro/internal/sim"
)

// serveJobs runs n copies of spec on svc one after another, each submitted
// once the previous one has streamed its final record, and returns their
// ids in submission order.
func serveJobs(t *testing.T, svc *Service, spec JobSpec, n int) []string {
	t.Helper()
	ids := make([]string, n)
	for i := range ids {
		st, err := svc.SubmitTraced(spec, obs.TraceContext{})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if err := svc.Stream(context.Background(), st.ID, 0, func(SnapshotRecord) error { return nil }); err != nil {
			t.Fatalf("stream %s: %v", st.ID, err)
		}
		ids[i] = st.ID
	}
	return ids
}

// tinyJob is the smallest job that still runs the whole path: one leapfrog
// step of 16 bodies on i-parallel.
func tinyJob() JobSpec { return quickJob(16, 1) }

// haltingJob trips the watchdog on its first snapshot, which captures a
// debug bundle.
func haltingJob() JobSpec {
	spec := quickJob(64, 50)
	spec.SnapshotEvery = 1
	spec.DT = 10 // absurd step: energy explodes immediately
	spec.Tolerances = &ToleranceSpec{Energy: 1e-6}
	return spec
}

// bundleService is a one-engine service that stores debug bundles and
// captures them back to back (no rate limit, no CPU profile).
func bundleService(t *testing.T) (*Service, *obs.BundleStore) {
	t.Helper()
	o := obs.New()
	pool, err := NewPool(1, gpusim.TestDevice(), o)
	if err != nil {
		t.Fatal(err)
	}
	bundles, err := obs.NewBundleStore(t.TempDir(), obs.BundleOptions{
		CPUProfile:  -1,
		MinInterval: -1,
		Obs:         o,
	})
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService(ServiceConfig{Engines: 1, QueueDepth: 4, DefaultTimeout: time.Minute, Obs: o, Bundles: bundles}, pool)
	return svc, bundles
}

// bundleTrace returns the merged trace of the newest bundle the store holds
// for the job: its otherData and its number of span events.
func bundleTrace(t *testing.T, bundles *obs.BundleStore, jobID string) (other map[string]any, spans int) {
	t.Helper()
	var id string
	waitFor(t, "bundle of "+jobID, func() bool {
		for _, info := range bundles.List() {
			if info.JobID == jobID {
				id = info.ID
			}
		}
		return id != ""
	})
	var doc struct {
		TraceEvents []obs.TraceEvent `json:"traceEvents"`
		OtherData   map[string]any   `json:"otherData"`
	}
	if err := json.Unmarshal(readBundle(t, bundles, id)["trace.json"], &doc); err != nil {
		t.Fatalf("bundle trace.json: %v", err)
	}
	for _, ev := range doc.TraceEvents {
		if ev.Phase == "X" {
			spans++
		}
	}
	return doc.OtherData, spans
}

// liveHeap collects garbage and returns the bytes of heap it found live.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// TestJobsListInSubmissionOrder: GET /v1/jobs and /debug/serve list the
// jobs in the order they were submitted, queued, running and finished
// alike, and two listings of the same jobs are equal.
func TestJobsListInSubmissionOrder(t *testing.T) {
	svc, _ := testService(t, 1, 32)
	var want []string
	for i := 0; i < 24; i++ {
		st, err := svc.SubmitTraced(quickJob(16, 20), obs.TraceContext{})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		want = append(want, st.ID)
	}
	ids := func() string {
		var got []string
		for _, st := range svc.Jobs() {
			got = append(got, st.ID)
		}
		return fmt.Sprint(got)
	}
	first, second := ids(), ids()
	if first != second || first != fmt.Sprint(want) {
		t.Fatalf("listings\n%s\n%s\nwant both in submission order\n%v", first, second, want)
	}
	for _, id := range want {
		await(t, svc, id)
	}
	if got := ids(); got != fmt.Sprint(want) {
		t.Fatalf("listing after every job finished %s, want %v", got, want)
	}
}

// request sends a bodiless request and returns the response's status and
// body.
func request(t *testing.T, method, url string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestEvictedJobReadsAsUnknown: past finishedJobWindow terminal jobs the
// one that finished first is evicted. Its id reads as unknown on every job
// route, the listing keeps the window, and the lifetime counters keep
// counting.
func TestEvictedJobReadsAsUnknown(t *testing.T) {
	svc, _ := testService(t, 1, 4)
	srv := httptest.NewServer(NewServer(svc))
	t.Cleanup(srv.Close)
	ids := serveJobs(t, svc, tinyJob(), finishedJobWindow+1)
	evicted, kept := ids[0], ids[1]

	for _, route := range []struct{ method, path string }{
		{http.MethodGet, "/v1/jobs/" + evicted},
		{http.MethodGet, "/v1/jobs/" + evicted + "/stream"},
		{http.MethodGet, "/v1/jobs/" + evicted + "/flight"},
		{http.MethodGet, "/v1/jobs/" + evicted + "/perf"},
		{http.MethodDelete, "/v1/jobs/" + evicted},
	} {
		if code, _ := request(t, route.method, srv.URL+route.path); code != http.StatusNotFound {
			t.Errorf("%s %s: status %d, want 404", route.method, route.path, code)
		}
	}
	if _, err := svc.JobPerf(kept); err != nil {
		t.Fatalf("perf of %s, the oldest job kept: %v", kept, err)
	}

	var list []JobStatus
	getJSON(t, srv.URL+"/v1/jobs", &list)
	if len(list) != finishedJobWindow || list[0].ID != kept || list[len(list)-1].ID != ids[len(ids)-1] {
		t.Fatalf("GET /v1/jobs lists %d jobs from %s, want the %d from %s to %s",
			len(list), list[0].ID, finishedJobWindow, kept, ids[len(ids)-1])
	}
	var stats StatsView
	getJSON(t, srv.URL+"/v1/stats", &stats)
	if n := int64(len(ids)); stats.Jobs.Accepted != n || stats.Jobs.Done != n {
		t.Fatalf("stats counted %d accepted and %d done, want %d of each", stats.Jobs.Accepted, stats.Jobs.Done, n)
	}
}

// TestEvictionFollowsFinishOrder: one slot holds a job while
// finishedJobWindow+1 jobs submitted after it finish on the other. Eviction
// goes in finish order, so the held job, once done, reads as done over GET
// and /perf, and the two later jobs that finished first are the ones
// evicted.
func TestEvictionFollowsFinishOrder(t *testing.T) {
	svc, pool := testService(t, 2, 4)
	srv := httptest.NewServer(NewServer(svc))
	t.Cleanup(srv.Close)
	// The held job asks for a theta of its own, so only its engine build
	// waits for release.
	const heldTheta = 0.7
	release := make(chan struct{})
	pool.buildEngine = func(sl *engineSlot, plan string, theta, eps float64) (sim.Engine, error) {
		if theta == heldTheta {
			<-release
		}
		return sl.engine(plan, theta, eps)
	}
	spec := tinyJob()
	spec.Theta = heldTheta
	held, err := svc.SubmitTraced(spec, obs.TraceContext{})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, svc, held.ID)
	later := serveJobs(t, svc, tinyJob(), finishedJobWindow+1)
	close(release)
	if st := await(t, svc, held.ID); st.State != StateDone {
		t.Fatalf("held job %s: state %s, error %q", held.ID, st.State, st.Error)
	}

	code, body := request(t, http.MethodGet, srv.URL+"/v1/jobs/"+held.ID)
	var st JobStatus
	if err := json.Unmarshal(body, &st); code != http.StatusOK || err != nil || st.State != StateDone {
		t.Fatalf("GET /v1/jobs/%s: status %d, state %q, want 200 and done", held.ID, code, st.State)
	}
	if code, _ := request(t, http.MethodGet, srv.URL+"/v1/jobs/"+held.ID+"/perf"); code != http.StatusOK {
		t.Fatalf("GET /v1/jobs/%s/perf: status %d, want 200", held.ID, code)
	}
	for i, id := range later[:3] {
		_, err := svc.Job(id)
		if evicted := errors.Is(err, ErrNotFound); evicted != (i < 2) {
			t.Errorf("job %s, finished %d of %d: evicted %v, want %v", id, i+1, len(later)+1, evicted, i < 2)
		}
	}
}

// TestBundleTraceLeadsWithTrippingJob: two jobs run and the second one
// trips the capture. The bundle's merged trace names the second job's trace
// first, although the first job's spans come earlier in it.
func TestBundleTraceLeadsWithTrippingJob(t *testing.T) {
	svc, bundles := bundleService(t)
	first := serveJobs(t, svc, tinyJob(), 1)[0]
	second := serveJobs(t, svc, haltingJob(), 1)[0]
	firstTrace, secondTrace := svc.mustJob(t, first).trace.TraceID, svc.mustJob(t, second).trace.TraceID

	other, _ := bundleTrace(t, bundles, second)
	if other["trace_id"] != secondTrace {
		t.Fatalf("bundle trace.json trace_id %v, want the tripping job's %s (the first job's is %s)",
			other["trace_id"], secondTrace, firstTrace)
	}
	ids, _ := other["trace_ids"].([]any)
	if len(ids) != 2 || ids[0] != secondTrace || ids[1] != firstTrace {
		t.Fatalf("bundle trace.json trace_ids %v, want [%s %s]", other["trace_ids"], secondTrace, firstTrace)
	}
}

// TestLiveHeapFlatInJobsServed serves tiny jobs past both windows, the
// tracer's and the finished jobs', and then 1,000 more: the live heap must
// not grow with them. A bundle captured at the end still holds its job's
// trace, in a trace of bounded size.
func TestLiveHeapFlatInJobsServed(t *testing.T) {
	const more, maxGrowth = 1000, 1 << 20
	svc, bundles := bundleService(t)
	serveJobs(t, svc, tinyJob(), finishedJobWindow+100)
	if n := len(svc.obs.Tracer().Spans()); n != spanWindow {
		t.Fatalf("tracer holds %d spans after %d jobs, want the full window %d", n, finishedJobWindow+100, spanWindow)
	}
	before := liveHeap()
	serveJobs(t, svc, tinyJob(), more)
	after := liveHeap()
	t.Logf("live heap %d -> %d bytes over %d jobs", before, after, more)
	if after > before+maxGrowth {
		t.Fatalf("live heap grew %d bytes over %d jobs, want at most %d", after-before, more, maxGrowth)
	}

	halted := serveJobs(t, svc, haltingJob(), 1)[0]
	other, spans := bundleTrace(t, bundles, halted)
	if want := svc.mustJob(t, halted).trace.TraceID; other["trace_id"] != want {
		t.Fatalf("bundle trace.json trace_id %v, want the halted job's %s", other["trace_id"], want)
	}
	if spans > spanWindow+1 {
		t.Fatalf("bundle trace.json holds %d spans, want at most the window %d and the capture span", spans, spanWindow)
	}
}

// TestBundleOfJobPastSpanWindow: a single job records more spans than the
// window holds before it trips a capture. Its bundle keeps only the job's
// most recent spans, a full window, and still names the job's trace.
func TestBundleOfJobPastSpanWindow(t *testing.T) {
	svc, bundles := bundleService(t)
	// A watchdog tolerance no leapfrog run meets halts the job at its
	// first snapshot, after steps steps of several spans each.
	const steps = spanWindow
	spec := quickJob(16, steps)
	spec.SnapshotEvery = steps
	spec.Tolerances = &ToleranceSpec{Energy: 1e-12}
	halted := serveJobs(t, svc, spec, 1)[0]

	other, spans := bundleTrace(t, bundles, halted)
	want := svc.mustJob(t, halted).trace.TraceID
	// trace_ids is written only when the trace holds more than one.
	if other["trace_id"] != want || other["trace_ids"] != nil {
		t.Fatalf("bundle trace.json trace_id %v, trace_ids %v, want only the halted job's %s",
			other["trace_id"], other["trace_ids"], want)
	}
	if spans != spanWindow+1 {
		t.Fatalf("bundle trace.json holds %d spans, want the full window %d and the capture span", spans, spanWindow)
	}
}
