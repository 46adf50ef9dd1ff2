package serve

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cl"
	"repro/internal/core"
	"repro/internal/integrate"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/pipeline"
	"repro/internal/sim"
)

// Sentinel errors surfaced to HTTP status codes by the server layer.
var (
	// ErrQueueFull is admission control: the bounded queue is at capacity
	// and the job was turned away (429 + Retry-After).
	ErrQueueFull = errors.New("serve: job queue full")
	// ErrDraining reports that the service is shutting down and accepts no
	// new jobs (503).
	ErrDraining = errors.New("serve: draining, not accepting jobs")
	// ErrNotFound reports an unknown job id (404).
	ErrNotFound = errors.New("serve: no such job")
)

// A service that accepts jobs forever keeps a bounded history of them, so its
// memory does not grow with the jobs it has served.
const (
	// spanWindow is how many of the most recent spans the service's tracer
	// keeps, shared by every engine slot. On the HD 5850 model a leapfrog
	// job records about 6 spans a step on i-parallel, 14 on w-parallel and
	// 16 on jw-parallel, and a Hermite block step on i-parallel at N 96
	// about 580, plus under 20 a job. So one job's whole trace fits up to
	// about 680, 290, 250 and 7 steps, and half that with two slots busy.
	// A longer job's debug bundle holds only its most recent spans.
	spanWindow = 4096
	// finishedJobWindow is how many terminal jobs the service keeps; past
	// it, the one that finished first is evicted and reads as an unknown
	// id. Queued and running jobs are always kept.
	finishedJobWindow = 1024
)

// ServiceConfig sizes the service.
type ServiceConfig struct {
	// Engines is the pool size (concurrent jobs). Default 2.
	Engines int
	// QueueDepth bounds the number of queued-but-not-running jobs; a submit
	// past this limit is rejected with ErrQueueFull. Default 8.
	QueueDepth int
	// DefaultTimeout bounds a job's run time when the spec sets none.
	// Default 5 minutes.
	DefaultTimeout time.Duration
	// MaxRetries is how many times a job is retried on a fresh engine after
	// an engine failure (not after cancellation, deadline, or a physics
	// tolerance violation). Default 1.
	MaxRetries int
	// Limits is per-job admission control.
	Limits Limits
	// Obs receives the service's spans and metrics; obs.New() when nil.
	// NewService bounds its tracer to the most recent spans.
	Obs *obs.Obs
	// Logger receives the service's structured log lines; every line about a
	// job carries job_id and trace_id attrs. Nil discards.
	Logger *slog.Logger
	// FlightCapacity is the per-job flight-recorder ring size (last K
	// events); obs.DefaultFlightCapacity when zero.
	FlightCapacity int
	// SLOs declares the service's objectives; zero objectives disables the
	// burn-rate sentinel. The spec must Validate (NewService logs and runs
	// without SLOs otherwise).
	SLOs SLOSpec
	// Bundles, when non-nil, receives anomaly-triggered debug bundles: one
	// capture on each SLO burn rising edge, watchdog halt, and engine
	// quarantine, rate-limited by the store.
	Bundles *obs.BundleStore
}

// withDefaults fills the zero fields.
func (c ServiceConfig) withDefaults() ServiceConfig {
	if c.Engines <= 0 {
		c.Engines = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 5 * time.Minute
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	} else if c.MaxRetries == 0 {
		c.MaxRetries = 1
	}
	if c.Obs == nil {
		c.Obs = obs.New()
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if c.FlightCapacity <= 0 {
		c.FlightCapacity = obs.DefaultFlightCapacity
	}
	return c
}

// job is the service's internal record of one submitted job.
type job struct {
	id   string
	num  int64 // the id's number, which orders the jobs by submission
	spec JobSpec

	// trace is the job's root trace position: TraceID correlates everything
	// the job touches, SpanID is the job span every nested span hangs off.
	// parentSpan is the inbound traceparent's span id, when a client sent
	// one (the job span records it as its parent).
	trace      obs.TraceContext
	parentSpan string
	// flight is the job's bounded black box; it outlives the run and is
	// dumped into the failure status.
	flight      *obs.FlightRecorder
	submittedAt time.Time

	ctx    context.Context // cancelled by Cancel or service shutdown
	cancel context.CancelFunc

	mu      sync.Mutex
	status  JobStatus
	records []SnapshotRecord
	notify  chan struct{} // closed and replaced whenever records/status change
	seq     int
	// perf is the job's executed-schedule attribution, built when an attempt
	// finishes on an engine that retains schedules (GET /v1/jobs/{id}/perf).
	perf *JobPerf
}

// publish appends a stream record (already sequenced) and wakes streamers.
// Callers hold j.mu.
func (j *job) publishLocked(rec SnapshotRecord) {
	rec.TraceID = j.trace.TraceID
	rec.Seq = j.seq
	j.seq++
	j.records = append(j.records, rec)
	close(j.notify)
	j.notify = make(chan struct{})
}

// emit publishes a snapshot record.
func (j *job) emit(sn sim.Snapshot) {
	j.flight.Record(obs.FlightEvent{
		Kind: "event", Name: "snapshot",
		Attrs: map[string]string{"step": strconv.Itoa(sn.Step)},
	})
	j.mu.Lock()
	defer j.mu.Unlock()
	j.status.Snapshots++
	j.publishLocked(SnapshotRecord{
		SchemaVersion: SnapshotSchemaVersion,
		JobID:         j.id,
		Snapshot:      snapshotJSON(sn),
	})
}

// finish moves the job to a terminal state and publishes the final record.
// It reports whether it made the transition (false when already terminal),
// so exactly one caller counts the outcome. A failed job gets its flight
// recorder dumped into the status: the failure carries its own history.
func (j *job) finish(state JobState, err error) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status.State.Terminal() {
		return false
	}
	detail := ""
	if err != nil {
		detail = err.Error()
	}
	// Lock order is always j.mu -> flight.mu; the recorder never calls back
	// into the job, so recording under j.mu cannot deadlock.
	j.flight.Record(obs.FlightEvent{Kind: "event", Name: "finished",
		Detail: detail, Attrs: map[string]string{"state": string(state)}})
	j.status.State = state
	j.status.FinishedAtMS = time.Now().UnixMilli()
	if err != nil {
		j.status.Error = err.Error()
	}
	if state == StateFailed {
		j.status.Flight = j.flight.Events()
	}
	j.publishLocked(SnapshotRecord{
		SchemaVersion: SnapshotSchemaVersion,
		JobID:         j.id,
		Final:         true,
		State:         state,
		Error:         j.status.Error,
	})
	return true
}

// Status snapshots the job's public state.
func (j *job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Service runs simulation jobs from a bounded queue on a pool of engines.
type Service struct {
	cfg  ServiceConfig
	pool *Pool
	obs  *obs.Obs
	log  *slog.Logger

	queue chan *job

	mu   sync.Mutex
	jobs map[string]*job
	// finished holds the terminal jobs in jobs in the order they finished,
	// at most finishedJobWindow of them.
	finished []*job
	draining bool
	nextID   atomic.Int64

	workers sync.WaitGroup

	// SLO sentinel + debug-bundle capture (nil when not configured).
	slo       *obs.SLOTracker
	sloSpecs  map[string]SLOObjectiveSpec // signal -> declared thresholds
	bundles   *obs.BundleStore
	startedAt time.Time

	// metrics
	mAccepted    *obs.Counter
	mRejected    *obs.Counter
	mDone        *obs.Counter
	mFailed      *obs.Counter
	mCancelled   *obs.Counter
	mRetries     *obs.Counter
	mQueueDepth  *obs.Gauge
	mQuarantined *obs.Gauge
	mJobMS       *obs.Histogram
	mQueueWaitMS *obs.Histogram
}

// NewService builds the service and starts one worker per pool slot.
func NewService(cfg ServiceConfig, pool *Pool) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:   cfg,
		pool:  pool,
		obs:   cfg.Obs,
		log:   cfg.Logger,
		queue: make(chan *job, cfg.QueueDepth),
		jobs:  make(map[string]*job),

		mAccepted:    cfg.Obs.Metrics.Counter("serve.jobs.accepted"),
		mRejected:    cfg.Obs.Metrics.Counter("serve.jobs.rejected"),
		mDone:        cfg.Obs.Metrics.Counter("serve.jobs.done"),
		mFailed:      cfg.Obs.Metrics.Counter("serve.jobs.failed"),
		mCancelled:   cfg.Obs.Metrics.Counter("serve.jobs.cancelled"),
		mRetries:     cfg.Obs.Metrics.Counter("serve.jobs.retries"),
		mQueueDepth:  cfg.Obs.Metrics.Gauge("serve.queue.depth"),
		mQuarantined: cfg.Obs.Metrics.Gauge("serve.engines.quarantined"),
		mJobMS:       cfg.Obs.Metrics.Histogram("serve.job.ms", []float64{1, 10, 100, 1000, 10000, 60000}),
		mQueueWaitMS: cfg.Obs.Metrics.Histogram("serve.queue.wait.ms", []float64{0.1, 1, 10, 100, 1000, 10000, 60000}),

		bundles:   cfg.Bundles,
		startedAt: time.Now(),
	}
	cfg.Obs.Tracer().SetWindow(spanWindow)
	if len(cfg.SLOs.Objectives) > 0 {
		if err := cfg.SLOs.Validate(); err != nil {
			cfg.Logger.Error("invalid SLO config, sentinel disabled", "error", err.Error())
		} else if tracker, err := obs.NewSLOTracker(cfg.SLOs.objectives(), cfg.Obs.Metrics); err != nil {
			cfg.Logger.Error("SLO tracker rejected config, sentinel disabled", "error", err.Error())
		} else {
			s.slo = tracker
			s.sloSpecs = make(map[string]SLOObjectiveSpec, len(cfg.SLOs.Objectives))
			for _, o := range cfg.SLOs.Objectives {
				s.sloSpecs[o.Signal] = o
			}
		}
	}
	for i := 0; i < pool.Size(); i++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s
}

// SubmitTraced validates and enqueues a job. It never blocks: a full queue
// returns ErrQueueFull immediately (the admission-control contract). parent
// is the inbound trace position (parsed from a traceparent header by the
// HTTP layer): the job joins the caller's trace instead of minting its own,
// and the job span records parent.SpanID as its parent. An invalid parent
// mints a fresh trace, so callers can pass the zero value unconditionally.
func (s *Service) SubmitTraced(spec JobSpec, parent obs.TraceContext) (JobStatus, error) {
	if err := spec.Validate(s.cfg.Limits); err != nil {
		return JobStatus{}, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	ctx, cancel := context.WithCancel(context.Background()) // repocheck:allow ctxpropagate -- jobs outlive the submit request by design; the job context detaches here and cancellation flows through Service.Cancel
	now := time.Now()
	num := s.nextID.Add(1)
	j := &job{
		id:          fmt.Sprintf("job-%d", num),
		num:         num,
		spec:        spec,
		trace:       parent.Child(), // same trace when valid, fresh otherwise
		parentSpan:  parent.SpanID,
		flight:      obs.NewFlightRecorder(s.cfg.FlightCapacity),
		submittedAt: now,
		ctx:         ctx,
		cancel:      cancel,
		notify:      make(chan struct{}),
	}
	j.status = JobStatus{
		SchemaVersion: JobSchemaVersion,
		ID:            j.id,
		State:         StateQueued,
		TraceID:       j.trace.TraceID,
		Plan:          spec.Plan,
		N:             spec.N(),
		Steps:         spec.Steps,
		Engine:        -1,
		SubmittedAtMS: now.UnixMilli(),
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		cancel()
		s.mRejected.Inc()
		s.log.Info("job rejected", "reason", "draining", "plan", spec.Plan, "n", spec.N())
		return JobStatus{}, ErrDraining
	}
	select {
	case s.queue <- j:
		s.jobs[j.id] = j
		s.mu.Unlock()
		s.mAccepted.Inc()
		s.mQueueDepth.Set(float64(len(s.queue)))
		j.flight.Record(obs.FlightEvent{Kind: "event", Name: "submitted", Attrs: map[string]string{
			"plan": spec.Plan, "n": strconv.Itoa(spec.N()), "steps": strconv.Itoa(spec.Steps),
		}})
		s.log.Info("job accepted",
			"job_id", j.id, "trace_id", j.trace.TraceID,
			"plan", spec.Plan, "n", spec.N(), "steps", spec.Steps,
			"queue_depth", len(s.queue))
		return j.Status(), nil
	default:
		s.mu.Unlock()
		cancel()
		s.mRejected.Inc()
		s.log.Info("job rejected", "reason", "queue full", "plan", spec.Plan, "n", spec.N())
		return JobStatus{}, ErrQueueFull
	}
}

// ErrBadSpec wraps spec validation failures (400).
var ErrBadSpec = errors.New("serve: invalid job spec")

// lookup returns a kept job; an unknown or evicted id is ErrNotFound.
func (s *Service) lookup(id string) (*job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return j, nil
}

// Job returns a job's status.
func (s *Service) Job(id string) (JobStatus, error) {
	j, err := s.lookup(id)
	if err != nil {
		return JobStatus{}, err
	}
	return j.Status(), nil
}

// Jobs lists the kept jobs in submission order: every queued and running
// job and the finishedJobWindow terminal ones that finished last.
func (s *Service) Jobs() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	slices.SortFunc(jobs, func(a, b *job) int { return cmp.Compare(a.num, b.num) })
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	return out
}

// finish moves j to a terminal state. The call that makes the transition
// counts the outcome and, past finishedJobWindow terminal jobs, evicts the
// one that finished first; later calls leave j as it is. It holds s.mu
// throughout, so a client that has read j's final record and then asks the
// service about any job sees the count and the eviction done.
func (s *Service) finish(j *job, state JobState, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !j.finish(state, err) {
		return
	}
	switch state {
	case StateDone:
		s.mDone.Inc()
	case StateFailed:
		s.mFailed.Inc()
	case StateCancelled:
		s.mCancelled.Inc()
	}
	s.finished = append(s.finished, j)
	if len(s.finished) > finishedJobWindow {
		delete(s.jobs, s.finished[0].id)
		s.finished[0] = nil // drop the evicted job's pointer
		s.finished = s.finished[1:]
	}
}

// Cancel cancels a job. A queued job moves to cancelled immediately (the
// worker later discards the husk); a running job observes the cancellation
// at its next step boundary.
func (s *Service) Cancel(id string) (JobStatus, error) {
	j, err := s.lookup(id)
	if err != nil {
		return JobStatus{}, err
	}
	j.mu.Lock()
	queued := j.status.State == StateQueued
	j.mu.Unlock()
	j.flight.Record(obs.FlightEvent{Kind: "event", Name: "cancel-requested"})
	s.log.Info("job cancel requested", "job_id", j.id, "trace_id", j.trace.TraceID, "queued", queued)
	j.cancel()
	if queued {
		s.finish(j, StateCancelled, errors.New("cancelled while queued"))
	}
	return j.Status(), nil
}

// Stream replays the job's records from seq `from` and then follows live
// appends until the final record or ctx is done. Each record is passed to
// sink; a sink error stops the stream (client went away).
func (s *Service) Stream(ctx context.Context, id string, from int, sink func(SnapshotRecord) error) error {
	j, err := s.lookup(id)
	if err != nil {
		return err
	}
	next := from
	for {
		j.mu.Lock()
		records := j.records
		notify := j.notify
		j.mu.Unlock()
		for ; next < len(records); next++ {
			rec := records[next]
			if err := sink(rec); err != nil {
				return err
			}
			if rec.Final {
				return nil
			}
		}
		select {
		case <-notify:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// QueueDepth returns the number of queued jobs.
func (s *Service) QueueDepth() int { return len(s.queue) }

// Draining reports whether Drain has begun.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain stops admission, lets queued and running jobs finish, and returns
// when every worker has exited. ctx bounds the wait: when it expires the
// remaining jobs are cancelled and Drain waits for them to unwind.
func (s *Service) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return fmt.Errorf("serve: already draining")
	}
	s.draining = true
	close(s.queue)
	live := len(s.jobs) - len(s.finished)
	s.mu.Unlock()
	s.log.Info("drain started", "live_jobs", live, "queue_depth", len(s.queue))

	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.log.Info("drain complete", "forced", false)
		return nil
	case <-ctx.Done():
		// Force: cancel everything still live and wait for the unwind. Each
		// forced cancellation is logged per job — several jobs draining at
		// once must stay distinguishable in the log.
		s.mu.Lock()
		victims := make([]*job, 0, len(s.jobs))
		for _, j := range s.jobs {
			victims = append(victims, j)
		}
		s.mu.Unlock()
		for _, j := range victims {
			st := j.Status()
			if st.State.Terminal() {
				continue
			}
			j.flight.Record(obs.FlightEvent{Kind: "event", Name: "drain-forced-cancel"})
			s.log.Warn("drain deadline passed, forcing cancel",
				"job_id", j.id, "trace_id", j.trace.TraceID, "state", string(st.State))
			j.cancel()
		}
		<-done
		s.log.Info("drain complete", "forced", true)
		return ctx.Err()
	}
}

// FlightView is the GET /v1/jobs/{id}/flight body: the job's flight-recorder
// contents, available for live and terminal jobs alike (a failed job's dump
// is also embedded in its JobStatus).
type FlightView struct {
	SchemaVersion int               `json:"schema_version"`
	JobID         string            `json:"job_id"`
	TraceID       string            `json:"trace_id"`
	State         JobState          `json:"state"`
	Events        []obs.FlightEvent `json:"events"`
	// Dropped counts events the bounded ring evicted (0 = complete history).
	Dropped int64 `json:"dropped"`
}

// Flight returns the job's flight-recorder contents.
func (s *Service) Flight(id string) (FlightView, error) {
	j, err := s.lookup(id)
	if err != nil {
		return FlightView{}, err
	}
	return j.flightView(), nil
}

// flightView snapshots the job's flight recorder.
func (j *job) flightView() FlightView {
	return FlightView{
		SchemaVersion: JobSchemaVersion,
		JobID:         j.id,
		TraceID:       j.trace.TraceID,
		State:         j.Status().State,
		Events:        j.flight.Events(),
		Dropped:       j.flight.Dropped(),
	}
}

// JobPerf returns the job's perf attribution. A job whose attribution has not
// been computed yet (still queued/running, or its plan retains no executed
// schedule) reports not-found, same as an unknown id.
func (s *Service) JobPerf(id string) (*JobPerf, error) {
	j, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.perf == nil {
		return nil, fmt.Errorf("%w: no perf attribution for %s yet", ErrNotFound, id)
	}
	p := *j.perf
	return &p, nil
}

// observeSLO feeds one measurement to the burn-rate sentinel. value is
// milliseconds for the latency signals (job_latency, queue_wait) and the
// quarantined pool fraction for pool_saturation; failed forces job_latency
// bad regardless of latency. A burn rising edge captures a debug bundle tied
// to the job whose observation tripped the alarm. No-op for undeclared
// signals (including the whole method when no SLOs are configured).
func (s *Service) observeSLO(j *job, signal string, value float64, failed bool) {
	spec, ok := s.sloSpecs[signal]
	if !ok {
		return
	}
	var good bool
	switch signal {
	case SignalJobLatency:
		good = !failed && value <= spec.ThresholdMS
	case SignalQueueWait:
		good = value <= spec.ThresholdMS
	case SignalPoolSaturation:
		good = value <= spec.MaxSaturation
	}
	status, rising := s.slo.Observe(signal, good)
	if !rising {
		return
	}
	attrs := []any{"slo", signal, "target", spec.Target, "burn_threshold", status.BurnThreshold,
		"budget_remaining", status.BudgetRemaining}
	if j != nil {
		attrs = append(attrs, "job_id", j.id, "trace_id", j.trace.TraceID)
		j.flight.Record(obs.FlightEvent{Kind: "event", Name: "slo-burn",
			Attrs: map[string]string{"slo": signal}})
	}
	s.log.Warn("SLO burning", attrs...)
	s.captureBundle(j, "slo-burn:"+signal)
}

// captureBundle captures an anomaly debug bundle (no-op without a store):
// the triggering job's flight ring, status, and perf attribution, plus the
// merged Chrome trace of the service's most recent spans, on top of the
// store's own process profiles. Rate limiting lives in the store.
func (s *Service) captureBundle(j *job, reason string) {
	if s.bundles == nil {
		return
	}
	files := map[string][]byte{}
	jobID, traceID := "", ""
	// The trace is a snapshot of the span window. Its last span marks the
	// capture on the triggering job's trace, so the merged trace's metadata
	// leads with that job while other jobs keep recording.
	tr := s.obs.Tracer().Clone()
	if j != nil {
		jobID, traceID = j.id, j.trace.TraceID
		tr.Start("debug-bundle", "serve").ChildOf(j.trace).Arg("job_id", j.id).Arg("reason", reason).End()
		if b, err := json.MarshalIndent(j.flightView(), "", "  "); err == nil {
			files["flight.json"] = b
		}
		if b, err := json.MarshalIndent(j.Status(), "", "  "); err == nil {
			files["status.json"] = b
		}
		j.mu.Lock()
		p := j.perf
		j.mu.Unlock()
		if p != nil {
			if b, err := json.MarshalIndent(p, "", "  "); err == nil {
				files["perf.json"] = b
			}
		}
	}
	var trace bytes.Buffer
	if err := cl.WriteMergedTrace(&trace, tr, s.pool.Device()); err == nil {
		files["trace.json"] = trace.Bytes()
	}
	info, err := s.bundles.Capture(reason, jobID, traceID, files)
	switch {
	case errors.Is(err, obs.ErrBundleRateLimited):
		s.log.Info("debug bundle rate-limited", "reason", reason, "job_id", jobID)
	case err != nil:
		s.log.Error("debug bundle capture failed", "reason", reason, "error", err.Error())
	default:
		s.log.Warn("debug bundle captured",
			"bundle_id", info.ID, "reason", reason, "job_id", jobID, "trace_id", traceID,
			"size_bytes", info.SizeBytes)
	}
}

// JobCounters is the lifetime job accounting in StatsView.
type JobCounters struct {
	Accepted  int64 `json:"accepted"`
	Rejected  int64 `json:"rejected"`
	Done      int64 `json:"done"`
	Failed    int64 `json:"failed"`
	Cancelled int64 `json:"cancelled"`
	Retries   int64 `json:"retries"`
}

// PoolStats is the engine-pool health in StatsView.
type PoolStats struct {
	Size        int `json:"size"`
	Healthy     int `json:"healthy"`
	Quarantined int `json:"quarantined"`
}

// StatsView is the GET /v1/stats body: one operational rollup joining job
// counters, queue and pool state, the SLO sentinel's live evaluation, and the
// captured debug bundles.
type StatsView struct {
	SchemaVersion int              `json:"schema_version"`
	UptimeMS      int64            `json:"uptime_ms"`
	Jobs          JobCounters      `json:"jobs"`
	QueueDepth    int              `json:"queue_depth"`
	QueueCap      int              `json:"queue_cap"`
	Draining      bool             `json:"draining"`
	Pool          PoolStats        `json:"pool"`
	SLOs          []obs.SLOStatus  `json:"slos,omitempty"`
	Bundles       []obs.BundleInfo `json:"bundles,omitempty"`
}

// Stats assembles the operational rollup.
func (s *Service) Stats() StatsView {
	healthy := s.pool.Healthy()
	return StatsView{
		SchemaVersion: JobSchemaVersion,
		UptimeMS:      time.Since(s.startedAt).Milliseconds(),
		Jobs: JobCounters{
			Accepted:  s.mAccepted.Value(),
			Rejected:  s.mRejected.Value(),
			Done:      s.mDone.Value(),
			Failed:    s.mFailed.Value(),
			Cancelled: s.mCancelled.Value(),
			Retries:   s.mRetries.Value(),
		},
		QueueDepth: s.QueueDepth(),
		QueueCap:   cap(s.queue),
		Draining:   s.Draining(),
		Pool: PoolStats{
			Size:        s.pool.Size(),
			Healthy:     healthy,
			Quarantined: s.pool.Size() - healthy,
		},
		SLOs:    s.slo.Snapshot(),
		Bundles: s.bundles.List(),
	}
}

// Bundles returns the service's bundle store (nil when not configured).
func (s *Service) Bundles() *obs.BundleStore { return s.bundles }

// worker drains the queue; it exits when Drain closes the queue.
func (s *Service) worker() {
	defer s.workers.Done()
	for j := range s.queue {
		s.mQueueDepth.Set(float64(len(s.queue)))
		s.run(j)
	}
}

// run executes one job end to end: acquire an engine, run the simulation
// with snapshots streaming, classify the outcome, retry on engine failure.
func (s *Service) run(j *job) {
	start := time.Now()
	// The queue-wait span is backdated to the submit instant: it is the
	// interval admission control added before any engine touched the job.
	queueWait := start.Sub(j.submittedAt)
	s.obs.Tracer().StartAt("queue-wait", "serve", j.submittedAt).
		ChildOf(j.trace).Arg("job_id", j.id).End()
	s.mQueueWaitMS.ObserveExemplar(float64(queueWait)/float64(time.Millisecond), j.trace.TraceID)
	s.observeSLO(j, SignalQueueWait, float64(queueWait)/float64(time.Millisecond), false)
	j.flight.Record(obs.FlightEvent{Kind: "span", Name: "queue-wait",
		AtUnixMS: j.submittedAt.UnixMilli(),
		DurMS:    float64(queueWait) / float64(time.Millisecond)})

	// The job span IS the job's root trace position (j.trace), so every
	// nested span — attempts, integrator steps, engine evaluations — chains
	// up to it, and an inbound traceparent chains above it.
	span := s.obs.Tracer().Start("job "+j.id, "serve").
		Trace(j.trace).Parent(j.parentSpan).
		Arg("job_id", j.id).
		Arg("plan", j.spec.Plan).Arg("n", j.spec.N()).Arg("steps", j.spec.Steps)
	defer func() {
		st := j.Status()
		span.Arg("state", string(st.State)).End()
		wall := time.Since(start)
		wallMS := float64(wall) / float64(time.Millisecond)
		// The latency histogram carries the job's trace id as an OpenMetrics
		// exemplar: a scrape that shows the slow bucket filling names a job
		// whose trace/flight/bundle explain it.
		s.mJobMS.ObserveExemplar(wallMS, j.trace.TraceID)
		// Cancelled jobs are neither good nor bad for the latency objective —
		// a client hanging up must not burn (or pad) the error budget.
		if st.State == StateDone || st.State == StateFailed {
			s.observeSLO(j, SignalJobLatency, wallMS, st.State == StateFailed)
		}
		s.log.Info("job finished",
			"job_id", j.id, "trace_id", j.trace.TraceID,
			"state", string(st.State), "error", st.Error,
			"retries", st.Retries, "snapshots", st.Snapshots,
			"wall_ms", wall.Milliseconds())
	}()

	if err := j.ctx.Err(); err != nil {
		s.finish(j, StateCancelled, fmt.Errorf("cancelled while queued"))
		return
	}

	j.mu.Lock()
	if j.status.State.Terminal() {
		j.mu.Unlock()
		return
	}
	j.status.State = StateRunning
	j.status.StartedAtMS = time.Now().UnixMilli()
	j.mu.Unlock()
	s.log.Info("job started",
		"job_id", j.id, "trace_id", j.trace.TraceID,
		"queue_wait_ms", queueWait.Milliseconds())

	var lastErr error
	for attempt := 0; ; attempt++ {
		retry, err := s.attempt(j, attempt)
		if err == nil {
			s.finish(j, StateDone, nil)
			return
		}
		lastErr = err
		if errors.Is(err, context.Canceled) || j.ctx.Err() != nil {
			s.finish(j, StateCancelled, err)
			return
		}
		if !retry || attempt >= s.cfg.MaxRetries {
			break
		}
		s.mRetries.Inc()
		j.flight.Record(obs.FlightEvent{Kind: "event", Name: "retry",
			Detail: err.Error(), Attrs: map[string]string{"attempt": strconv.Itoa(attempt + 1)}})
		s.log.Warn("job retrying on a fresh engine",
			"job_id", j.id, "trace_id", j.trace.TraceID,
			"attempt", attempt+1, "error", err.Error())
		j.mu.Lock()
		j.status.Retries++
		j.mu.Unlock()
	}
	s.finish(j, StateFailed, lastErr)
}

// attempt runs the job once on a freshly acquired engine. The bool reports
// whether the failure is worth retrying on another engine: engine faults
// are, while cancellation, deadlines, physics violations and spec errors are
// not (they would fail identically anywhere).
func (s *Service) attempt(j *job, attempt int) (retry bool, err error) {
	attemptStart := time.Now()
	aspan := s.obs.Tracer().Start("attempt", "serve").ChildOf(j.trace).
		Arg("job_id", j.id).Arg("attempt", attempt)
	defer func() {
		detail := ""
		if err != nil {
			detail = err.Error()
			aspan.Arg("error", detail)
		}
		aspan.End()
		j.flight.Record(obs.FlightEvent{Kind: "span", Name: "attempt",
			AtUnixMS: attemptStart.UnixMilli(),
			DurMS:    float64(time.Since(attemptStart)) / float64(time.Millisecond),
			Detail:   detail,
			Attrs:    map[string]string{"attempt": strconv.Itoa(attempt)}})
	}()

	sl, err := s.pool.acquire(j.ctx.Done())
	if err != nil {
		return false, err
	}
	s.mQuarantined.Set(float64(s.pool.Size() - s.pool.Healthy()))
	s.observeSLO(j, SignalPoolSaturation,
		float64(s.pool.Size()-s.pool.Healthy())/float64(s.pool.Size()), false)
	j.flight.Record(obs.FlightEvent{Kind: "event", Name: "engine-acquired",
		Attrs: map[string]string{"engine": strconv.Itoa(sl.id)}})

	spec := &j.spec
	theta := spec.Theta
	if theta == 0 {
		theta = 0.6
	}
	eps := spec.Eps
	if eps == 0 {
		eps = 0.05
	}
	eng, err := s.pool.engineFor(sl, spec.Plan, theta, eps)
	if err != nil {
		// The plan would not build on this device: quarantine and retry.
		s.pool.Quarantine(sl, err.Error())
		s.mQuarantined.Set(float64(s.pool.Size() - s.pool.Healthy()))
		j.flight.Record(obs.FlightEvent{Kind: "event", Name: "quarantine",
			Detail: err.Error(), Attrs: map[string]string{"engine": strconv.Itoa(sl.id)}})
		s.captureBundle(j, "quarantine")
		return true, fmt.Errorf("engine %d: %w", sl.id, err)
	}

	j.mu.Lock()
	j.status.Engine = sl.id
	j.status.EngineCaps = sim.Caps(eng).String()
	j.mu.Unlock()

	sys, err := spec.System()
	if err != nil {
		s.pool.release(sl)
		return false, err
	}
	integName := spec.Integrator
	if integName == "" {
		integName = "leapfrog"
	}
	integ, err := integrate.New(integName)
	if err != nil {
		s.pool.release(sl)
		return false, err
	}

	// Pipeline mode lives on the cached engine, so set it for every job:
	// a serial job after an overlap job must not inherit overlap.
	window := 0
	mode := pipeline.Serial
	if spec.Pipeline == "overlap" {
		window = spec.PipelineWindow
		if window < 2 {
			window = 8
		}
		mode = pipeline.Overlap
	}
	// Arm executed-schedule retention, which also restarts the engine's
	// totals, so the attempt ends with a perf attribution over what actually
	// executed. The slot is held exclusively for the attempt, so the totals
	// are this job's alone.
	var pe *core.Engine
	if ce, ok := eng.(*core.Engine); ok {
		pe = ce
		pe.Mode = mode
		pe.RetainSchedules(maxRetainedSpans)
	} else if mode == pipeline.Overlap {
		s.pool.release(sl)
		return false, fmt.Errorf("plan %s does not support pipeline overlap", spec.Plan)
	}

	ctx, cancel := context.WithTimeout(j.ctx, spec.timeout(s.cfg.DefaultTimeout))
	defer cancel()
	// Thread the attempt's trace position down: integrator steps and engine
	// evaluations become children of this attempt in the merged trace.
	ctx = obs.WithTraceContext(ctx, aspan.TraceContext())

	_, runErr := sim.RunContext(ctx, sys, eng, integ, sim.Config{
		DT:             float32(spec.DT),
		Steps:          spec.Steps,
		SnapshotEvery:  spec.SnapshotEvery,
		G:              1,
		Eps:            eps,
		Integrator:     integName,
		Scenario:       spec.ScenarioName(),
		DTMin:          float32(spec.DTMin),
		DTMax:          float32(spec.DTMax),
		Eta:            float32(spec.Eta),
		Obs:            s.obs,
		Watchdog:       spec.watchdog(),
		PipelineWindow: window,
		OnSnapshot: func(sn sim.Snapshot) error {
			j.emit(sn)
			return nil
		},
	})

	// Attribute the attempt's executed schedule before the slot moves on —
	// failed attempts keep their attribution too (it is debug-bundle input).
	if pe != nil {
		if p := buildJobPerf(j, sl.id, sl.dev, pe, time.Since(attemptStart)); p != nil {
			j.mu.Lock()
			j.perf = p
			j.status.Perf = p.Summary()
			j.mu.Unlock()
			j.flight.Record(obs.FlightEvent{Kind: "event", Name: "perf-attributed",
				Attrs: map[string]string{
					"makespan_ms": strconv.FormatFloat(p.Attribution.MakespanSeconds*1e3, 'g', 6, 64),
					"spans":       strconv.Itoa(p.ScheduleSpans),
				}})
		}
		pe.RetainSchedules(0) // drop the retained spans and totals with the job
	}

	if runErr == nil {
		s.pool.release(sl)
		return false, nil
	}

	// Classify before releasing: a quarantined slot must never re-enter the
	// free list, even for an instant.
	var viol *perf.Violation
	switch {
	case errors.Is(runErr, context.Canceled), errors.Is(runErr, context.DeadlineExceeded):
		// The engine is fine; the job was cancelled or ran out of time.
		s.pool.release(sl)
		return false, runErr
	case errors.As(runErr, &viol):
		// Deterministic physics failure: another engine computes the same
		// trajectory, retrying only burns a device.
		j.flight.Record(obs.FlightEvent{Kind: "event", Name: "watchdog-halt", Detail: runErr.Error()})
		s.pool.release(sl)
		s.captureBundle(j, "watchdog-halt")
		return false, runErr
	default:
		// The engine itself failed. Quarantine the slot (consuming it — it
		// is never released) so the retry and every later job land on a
		// healthy one.
		s.pool.Quarantine(sl, runErr.Error())
		s.mQuarantined.Set(float64(s.pool.Size() - s.pool.Healthy()))
		j.flight.Record(obs.FlightEvent{Kind: "event", Name: "quarantine",
			Detail: runErr.Error(), Attrs: map[string]string{"engine": strconv.Itoa(sl.id)}})
		s.captureBundle(j, "quarantine")
		return true, fmt.Errorf("engine %d: %w", sl.id, runErr)
	}
}
