package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// syncWriter serialises concurrent handler writes into one buffer.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

func TestSubmitTracedJoinsCallerTrace(t *testing.T) {
	svc, _ := testService(t, 1, 4)
	parent, ok := obs.ParseTraceParent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	if !ok {
		t.Fatal("canonical traceparent did not parse")
	}
	spec := quickJob(64, 10)
	spec.SnapshotEvery = 5
	st, err := svc.SubmitTraced(spec, parent)
	if err != nil {
		t.Fatal(err)
	}
	if st.TraceID != parent.TraceID {
		t.Fatalf("job trace id %q, want the caller's %q", st.TraceID, parent.TraceID)
	}
	got := await(t, svc, st.ID)
	if got.State != StateDone {
		t.Fatalf("state %s, error %q", got.State, got.Error)
	}
	if got.TraceID != parent.TraceID {
		t.Fatalf("terminal status lost the trace id: %q", got.TraceID)
	}

	// Every stream record carries the trace id.
	j := svc.mustJob(t, st.ID)
	j.mu.Lock()
	records := append([]SnapshotRecord(nil), j.records...)
	j.mu.Unlock()
	if len(records) == 0 {
		t.Fatal("no stream records")
	}
	for i, rec := range records {
		if rec.TraceID != parent.TraceID {
			t.Fatalf("record %d trace id %q, want %q", i, rec.TraceID, parent.TraceID)
		}
	}

	// The tracer holds a connected tree: a job root span occupying the job's
	// trace position with the caller's span as parent, and queue-wait /
	// attempt spans chained under it.
	spans := svc.obs.Tracer().Spans()
	var jobSpan, queueWait, attemptSpan *obs.SpanRecord
	for i := range spans {
		sp := &spans[i]
		switch {
		case strings.HasPrefix(sp.Name, "job "):
			jobSpan = sp
		case sp.Name == "queue-wait":
			queueWait = sp
		case sp.Name == "attempt":
			attemptSpan = sp
		}
	}
	if jobSpan == nil || queueWait == nil || attemptSpan == nil {
		t.Fatalf("missing spans: job=%v queue-wait=%v attempt=%v", jobSpan != nil, queueWait != nil, attemptSpan != nil)
	}
	if jobSpan.TraceID != parent.TraceID {
		t.Fatalf("job span trace %q, want %q", jobSpan.TraceID, parent.TraceID)
	}
	if jobSpan.ParentID != parent.SpanID {
		t.Fatalf("job span parent %q, want the caller's span %q", jobSpan.ParentID, parent.SpanID)
	}
	for _, sp := range []*obs.SpanRecord{queueWait, attemptSpan} {
		if sp.TraceID != parent.TraceID {
			t.Fatalf("%s span trace %q, want %q", sp.Name, sp.TraceID, parent.TraceID)
		}
		if sp.ParentID != jobSpan.SpanID {
			t.Fatalf("%s span parent %q, want the job span %q", sp.Name, sp.ParentID, jobSpan.SpanID)
		}
	}
	// sim-layer step spans must chain under the attempt (trace context rides
	// the run context down through sim.RunContext).
	stepSeen := false
	for _, sp := range spans {
		if sp.Name == "step" && sp.Category == "sim" {
			stepSeen = true
			if sp.TraceID != parent.TraceID || sp.ParentID != attemptSpan.SpanID {
				t.Fatalf("step span {trace %q parent %q}, want {%q %q}",
					sp.TraceID, sp.ParentID, parent.TraceID, attemptSpan.SpanID)
			}
		}
	}
	if !stepSeen {
		t.Fatal("no sim step spans recorded")
	}
}

// mustJob reaches into the service for the internal job record.
func (s *Service) mustJob(t *testing.T, id string) *job {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		t.Fatalf("no job %s", id)
	}
	return j
}

func TestSubmitMintsFreshTraceWithoutParent(t *testing.T) {
	svc, _ := testService(t, 1, 4)
	st, err := svc.SubmitTraced(quickJob(64, 5), obs.TraceContext{})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.TraceID) != 32 {
		t.Fatalf("minted trace id %q, want 32 hex chars", st.TraceID)
	}
	st2, err := svc.SubmitTraced(quickJob(64, 5), obs.TraceContext{})
	if err != nil {
		t.Fatal(err)
	}
	if st2.TraceID == st.TraceID {
		t.Fatal("two independent jobs share a trace id")
	}
	await(t, svc, st.ID)
	await(t, svc, st2.ID)
}

func TestFlightRecorderSurvivesEngineFaultFailure(t *testing.T) {
	svc, pool := testService(t, 1, 4)
	pool.buildEngine = func(sl *engineSlot, plan string, theta, eps float64) (sim.Engine, error) {
		return faultyEngine{}, nil
	}
	st, err := svc.SubmitTraced(quickJob(64, 10), obs.TraceContext{})
	if err != nil {
		t.Fatal(err)
	}
	got := await(t, svc, st.ID)
	if got.State != StateFailed {
		t.Fatalf("state %s, want failed", got.State)
	}
	// The failed status embeds the flight dump.
	if len(got.Flight) == 0 {
		t.Fatal("failed status has no flight dump")
	}
	names := map[string]bool{}
	for _, ev := range got.Flight {
		names[ev.Name] = true
	}
	for _, want := range []string{"submitted", "engine-acquired", "quarantine", "finished"} {
		if !names[want] {
			t.Errorf("flight dump missing %q event (have %v)", want, names)
		}
	}

	// The flight endpoint view agrees and carries identity.
	fv, err := svc.Flight(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fv.JobID != st.ID || fv.TraceID != st.TraceID || fv.State != StateFailed {
		t.Fatalf("flight view identity: %+v", fv)
	}
	if len(fv.Events) == 0 {
		t.Fatal("flight view has no events")
	}
	if _, err := svc.Flight("job-999"); err == nil {
		t.Fatal("unknown job's flight did not 404")
	}
}

func TestFlightRecordsRetryAcrossEngines(t *testing.T) {
	svc, pool := testService(t, 2, 4)
	pool.buildEngine = func(sl *engineSlot, plan string, theta, eps float64) (sim.Engine, error) {
		if sl.id == 0 {
			return faultyEngine{}, nil
		}
		return sl.engine(plan, theta, eps)
	}
	// Run until a job lands on the faulty slot first and retries through.
	for i := 0; i < 4; i++ {
		st, err := svc.SubmitTraced(quickJob(64, 10), obs.TraceContext{})
		if err != nil {
			t.Fatal(err)
		}
		got := await(t, svc, st.ID)
		if got.State != StateDone {
			t.Fatalf("job %s: state %s, error %q", st.ID, got.State, got.Error)
		}
		if got.Retries == 0 {
			continue
		}
		fv, err := svc.Flight(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		var sawRetry, attempts int
		for _, ev := range fv.Events {
			switch ev.Name {
			case "retry":
				sawRetry++
			case "attempt":
				attempts++
			}
		}
		if sawRetry == 0 || attempts < 2 {
			t.Fatalf("retried job's flight: %d retry events, %d attempt spans (events %+v)",
				sawRetry, attempts, fv.Events)
		}
		return
	}
	t.Fatal("no job ever landed on the faulty engine; test is vacuous")
}

func TestHTTPTraceparentRoundTrip(t *testing.T) {
	srv, svc := testHTTP(t, 1, 4)
	const tp = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	spec := quickJob(64, 10)
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/jobs", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", tp)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	const wantTrace = "0af7651916cd43dd8448eb211c80319c"
	if got := resp.Header.Get("X-Trace-Id"); got != wantTrace {
		t.Fatalf("X-Trace-Id %q, want %q", got, wantTrace)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.TraceID != wantTrace {
		t.Fatalf("accepted status trace id %q, want %q", st.TraceID, wantTrace)
	}
	await(t, svc, st.ID)

	// Status and flight responses echo the trace id too.
	for _, path := range []string{"/v1/jobs/" + st.ID, "/v1/jobs/" + st.ID + "/flight"} {
		r2, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, r2.Body)
		r2.Body.Close()
		if got := r2.Header.Get("X-Trace-Id"); got != wantTrace {
			t.Fatalf("GET %s: X-Trace-Id %q, want %q", path, got, wantTrace)
		}
	}

	// Every NDJSON stream record carries the trace id.
	stream, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	sc := bufio.NewScanner(stream.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lines := 0
	for sc.Scan() {
		var rec SnapshotRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.TraceID != wantTrace {
			t.Fatalf("stream record %d trace id %q, want %q", lines, rec.TraceID, wantTrace)
		}
		lines++
	}
	if lines == 0 {
		t.Fatal("empty stream")
	}
}

func TestHTTPFlightEndpoint(t *testing.T) {
	srv, svc := testHTTP(t, 1, 4)
	_, st := postJob(t, srv.URL, quickJob(64, 10))
	await(t, svc, st.ID)
	var fv FlightView
	getJSON(t, srv.URL+"/v1/jobs/"+st.ID+"/flight", &fv)
	if fv.JobID != st.ID || len(fv.Events) == 0 {
		t.Fatalf("flight view: %+v", fv)
	}
	resp, err := http.Get(srv.URL + "/v1/jobs/job-999/flight")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job's flight: status %d, want 404", resp.StatusCode)
	}
}

func TestHTTPMetricsContentNegotiation(t *testing.T) {
	srv, svc := testHTTP(t, 1, 4)
	_, st := postJob(t, srv.URL, quickJob(64, 5))
	await(t, svc, st.ID)

	// Default stays JSON — existing scrapers must not notice this PR.
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("default /metrics content type %q", ct)
	}
	var js struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&js); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if js.Counters["serve.jobs.accepted"] < 1 {
		t.Fatalf("JSON metrics missing serve.jobs.accepted: %v", js.Counters)
	}

	// Accept: text/plain flips to Prometheus exposition.
	fetch := func(mutate func(*http.Request)) (string, string) {
		req, err := http.NewRequest(http.MethodGet, srv.URL+"/metrics", nil)
		if err != nil {
			t.Fatal(err)
		}
		mutate(req)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.Header.Get("Content-Type"), string(body)
	}
	for name, mutate := range map[string]func(*http.Request){
		"accept text/plain": func(r *http.Request) { r.Header.Set("Accept", "text/plain;version=0.0.4") },
		"format=prometheus": func(r *http.Request) { r.URL.RawQuery = "format=prometheus" },
	} {
		ct, body := fetch(mutate)
		if ct != obs.PrometheusContentType {
			t.Fatalf("%s: content type %q, want %q", name, ct, obs.PrometheusContentType)
		}
		if !strings.Contains(body, "# TYPE serve_jobs_accepted counter") {
			t.Fatalf("%s: body lacks the counter TYPE line:\n%s", name, body)
		}
		if !strings.Contains(body, `serve_job_ms_bucket{le="+Inf"}`) {
			t.Fatalf("%s: body lacks the +Inf histogram bucket:\n%s", name, body)
		}
		if strings.Contains(body, "# EOF") {
			t.Fatalf("%s: Prometheus 0.0.4 exposition must not carry the OpenMetrics terminator", name)
		}
	}

	// Accept: openmetrics upgrades to the OpenMetrics exposition: same
	// families, exemplars on traced histograms, mandatory # EOF terminator.
	ct, body := fetch(func(r *http.Request) {
		r.Header.Set("Accept", "application/openmetrics-text;version=1.0.0")
	})
	if ct != obs.OpenMetricsContentType {
		t.Fatalf("accept openmetrics: content type %q, want %q", ct, obs.OpenMetricsContentType)
	}
	if !strings.Contains(body, "# TYPE serve_jobs_accepted counter") {
		t.Fatalf("openmetrics body lacks the counter TYPE line:\n%s", body)
	}
	if !strings.HasSuffix(strings.TrimRight(body, "\n"), "# EOF") {
		t.Fatalf("openmetrics body must end with # EOF:\n%s", body)
	}
	if !strings.Contains(body, `# {trace_id="`+st.TraceID+`"}`) {
		t.Fatalf("openmetrics body lacks the job's latency exemplar (trace %s):\n%s", st.TraceID, body)
	}
}

func TestHTTPAccessLogCarriesTraceID(t *testing.T) {
	svc, _ := testService(t, 1, 4)
	var buf bytes.Buffer
	var mu syncWriter
	mu.w = &buf
	h := NewServer(svc)
	h.AccessLog = slog.New(slog.NewJSONHandler(&mu, nil))
	srv := httptest.NewServer(h)
	defer srv.Close()

	_, st := postJob(t, srv.URL, quickJob(64, 5))
	await(t, svc, st.ID)
	resp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	mu.mu.Lock()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	mu.mu.Unlock()
	if len(lines) < 2 {
		t.Fatalf("access log has %d lines, want >= 2", len(lines))
	}
	sawTrace := false
	for _, line := range lines {
		var entry map[string]any
		if err := json.Unmarshal([]byte(line), &entry); err != nil {
			t.Fatalf("bad access log line %q: %v", line, err)
		}
		if entry["method"] == nil || entry["path"] == nil || entry["status"] == nil {
			t.Fatalf("access log line missing fields: %q", line)
		}
		if tid, _ := entry["trace_id"].(string); tid == st.TraceID {
			sawTrace = true
		}
	}
	if !sawTrace {
		t.Fatalf("no access log line carries the job's trace id %s:\n%s", st.TraceID, buf.String())
	}
}
