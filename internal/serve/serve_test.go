package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/body"
	"repro/internal/gpusim"
	"repro/internal/integrate"
	"repro/internal/obs"
	"repro/internal/sim"
)

// testService builds a service over the tiny modelled test device.
func testService(t *testing.T, engines, queueDepth int) (*Service, *Pool) {
	t.Helper()
	o := obs.New()
	pool, err := NewPool(engines, gpusim.TestDevice(), o)
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService(ServiceConfig{
		Engines:        engines,
		QueueDepth:     queueDepth,
		DefaultTimeout: time.Minute,
		Obs:            o,
	}, pool)
	return svc, pool
}

// quickJob is a small job that completes in well under a second.
func quickJob(n, steps int) JobSpec {
	return JobSpec{
		SchemaVersion: JobSchemaVersion,
		Plan:          "i-parallel",
		Scenario:      &ScenarioSpec{Name: "plummer", N: n, Seed: 1},
		Steps:         steps,
		DT:            0.01,
		SnapshotEvery: 0,
	}
}

// await polls until the job reaches a terminal state.
func await(t *testing.T, svc *Service, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, err := svc.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return JobStatus{}
}

func TestConcurrentJobsCompleteOnTwoEnginePool(t *testing.T) {
	svc, _ := testService(t, 2, 16)
	const jobs = 6
	ids := make([]string, jobs)
	for i := range ids {
		st, err := svc.SubmitTraced(quickJob(64, 10), obs.TraceContext{})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids[i] = st.ID
	}
	engines := map[int]bool{}
	for _, id := range ids {
		st := await(t, svc, id)
		if st.State != StateDone {
			t.Fatalf("job %s: state %s, error %q", id, st.State, st.Error)
		}
		if st.Snapshots < 2 {
			t.Fatalf("job %s: streamed %d snapshots, want >= 2 (start + end)", id, st.Snapshots)
		}
		engines[st.Engine] = true
	}
	if len(engines) != 2 {
		t.Errorf("6 jobs used engines %v, want both pool slots busy at least once", engines)
	}
}

func TestQueueFullRejectsWithErrQueueFull(t *testing.T) {
	svc, _ := testService(t, 1, 1)
	// Long jobs occupy the engine and then the queue; with one engine and a
	// depth-1 queue, the third submit (at the latest) must bounce. Submits
	// are instant, runs are not, so the bounce is deterministic in practice.
	long := quickJob(256, 2000)
	var gotFull bool
	for i := 0; i < 5 && !gotFull; i++ {
		_, err := svc.SubmitTraced(long, obs.TraceContext{})
		switch {
		case err == nil:
		case errors.Is(err, ErrQueueFull):
			gotFull = true
		default:
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if !gotFull {
		t.Fatal("queue never reported full after 5 instant submits over a depth-1 queue")
	}
	// Unblock the runtime: cancel everything and let the workers unwind.
	jobs := svc.Jobs()
	for _, st := range jobs {
		svc.Cancel(st.ID)
	}
	for _, st := range jobs {
		await(t, svc, st.ID)
	}
}

func TestCancelStopsRunningJobAndFreesEngine(t *testing.T) {
	svc, _ := testService(t, 1, 4)
	st, err := svc.SubmitTraced(quickJob(256, 100000), obs.TraceContext{})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until it is actually running on the single engine.
	deadline := time.Now().Add(10 * time.Second)
	for {
		cur, _ := svc.Job(st.ID)
		if cur.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := svc.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	got := await(t, svc, st.ID)
	if got.State != StateCancelled {
		t.Fatalf("state %s, want cancelled (error %q)", got.State, got.Error)
	}
	// The engine must be free again: a fresh job completes.
	st2, err := svc.SubmitTraced(quickJob(64, 10), obs.TraceContext{})
	if err != nil {
		t.Fatal(err)
	}
	if got := await(t, svc, st2.ID); got.State != StateDone {
		t.Fatalf("post-cancel job: state %s, error %q", got.State, got.Error)
	}
}

func TestCancelQueuedJobNeverRuns(t *testing.T) {
	svc, _ := testService(t, 1, 4)
	blocker, err := svc.SubmitTraced(quickJob(256, 5000), obs.TraceContext{})
	if err != nil {
		t.Fatal(err)
	}
	victim, err := svc.SubmitTraced(quickJob(64, 10), obs.TraceContext{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Cancel(victim.ID); err != nil {
		t.Fatal(err)
	}
	got := await(t, svc, victim.ID)
	if got.State != StateCancelled {
		t.Fatalf("state %s, want cancelled", got.State)
	}
	if got.Engine != -1 || got.Snapshots > 0 {
		t.Fatalf("cancelled queued job ran anyway: %+v", got)
	}
	svc.Cancel(blocker.ID)
	await(t, svc, blocker.ID)
}

func TestJobDeadlineFailsJob(t *testing.T) {
	svc, _ := testService(t, 1, 4)
	spec := quickJob(256, 1000000)
	spec.TimeoutMS = 50
	st, err := svc.SubmitTraced(spec, obs.TraceContext{})
	if err != nil {
		t.Fatal(err)
	}
	got := await(t, svc, st.ID)
	if got.State != StateFailed {
		t.Fatalf("state %s, want failed", got.State)
	}
	if got.Error == "" {
		t.Fatal("deadline failure must carry an error")
	}
}

// faultyEngine fails every Accel call.
type faultyEngine struct{}

func (faultyEngine) Name() string { return "faulty" }
func (faultyEngine) Accel(*body.System) (int64, error) {
	return 0, fmt.Errorf("device fell off the bus")
}

func TestEngineFailureQuarantinesAndRetries(t *testing.T) {
	svc, pool := testService(t, 2, 4)
	// Slot 0 hands out a broken engine; slot 1 builds the real one.
	var mu sync.Mutex
	builds := map[int]int{}
	pool.buildEngine = func(sl *engineSlot, plan string, theta, eps float64) (sim.Engine, error) {
		mu.Lock()
		builds[sl.id]++
		mu.Unlock()
		if sl.id == 0 {
			return faultyEngine{}, nil
		}
		return sl.engine(plan, theta, eps)
	}
	// Run jobs until one lands on slot 0 first (scheduling order is not
	// guaranteed); that job must retry onto slot 1 and still complete.
	sawRetry := false
	for i := 0; i < 4 && !sawRetry; i++ {
		st, err := svc.SubmitTraced(quickJob(64, 10), obs.TraceContext{})
		if err != nil {
			t.Fatal(err)
		}
		got := await(t, svc, st.ID)
		if got.State != StateDone {
			t.Fatalf("job %s: state %s, error %q", st.ID, got.State, got.Error)
		}
		if got.Retries > 0 {
			sawRetry = true
			if got.Engine != 1 {
				t.Errorf("retried job finished on engine %d, want 1", got.Engine)
			}
		}
	}
	if !sawRetry {
		t.Fatal("no job ever landed on the faulty engine; test is vacuous")
	}
	if h := pool.Healthy(); h != 1 {
		t.Fatalf("healthy slots %d, want 1 (slot 0 quarantined)", h)
	}
	// Quarantined slots take no further work.
	st, err := svc.SubmitTraced(quickJob(64, 10), obs.TraceContext{})
	if err != nil {
		t.Fatal(err)
	}
	if got := await(t, svc, st.ID); got.Engine != 1 {
		t.Errorf("post-quarantine job ran on engine %d, want 1", got.Engine)
	}
}

func TestAllEnginesQuarantinedFailsFast(t *testing.T) {
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
	if pool.Healthy() != 0 {
		t.Fatalf("healthy %d, want 0", pool.Healthy())
	}
	// With the pool dead, the next job fails fast instead of hanging.
	st2, err := svc.SubmitTraced(quickJob(64, 10), obs.TraceContext{})
	if err != nil {
		t.Fatal(err)
	}
	got2 := await(t, svc, st2.ID)
	if got2.State != StateFailed {
		t.Fatalf("pool-dead job: state %s, want failed", got2.State)
	}
}

func TestDrainFinishesInFlightAndRejectsNew(t *testing.T) {
	svc, _ := testService(t, 2, 8)
	ids := make([]string, 4)
	for i := range ids {
		st, err := svc.SubmitTraced(quickJob(64, 50), obs.TraceContext{})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range ids {
		st, err := svc.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateDone {
			t.Fatalf("job %s after drain: state %s, error %q", id, st.State, st.Error)
		}
	}
	if _, err := svc.SubmitTraced(quickJob(64, 10), obs.TraceContext{}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining: got %v, want ErrDraining", err)
	}
}

func TestDrainDeadlineCancelsStragglers(t *testing.T) {
	svc, _ := testService(t, 1, 4)
	st, err := svc.SubmitTraced(quickJob(256, 1000000), obs.TraceContext{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	err = svc.Drain(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain: got %v, want DeadlineExceeded", err)
	}
	got, err := svc.Job(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !got.State.Terminal() {
		t.Fatalf("straggler not terminal after forced drain: %s", got.State)
	}
}

func TestStreamReplaysAndFollows(t *testing.T) {
	svc, _ := testService(t, 1, 4)
	spec := quickJob(64, 20)
	spec.SnapshotEvery = 5
	st, err := svc.SubmitTraced(spec, obs.TraceContext{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var recs []SnapshotRecord
	err = svc.Stream(ctx, st.ID, 0, func(rec SnapshotRecord) error {
		recs = append(recs, rec)
		return nil
	})
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	if len(recs) < 3 {
		t.Fatalf("streamed %d records, want snapshots + final", len(recs))
	}
	final := recs[len(recs)-1]
	if !final.Final || final.State != StateDone {
		t.Fatalf("last record not a done-final: %+v", final)
	}
	for i, rec := range recs {
		if rec.Seq != i {
			t.Fatalf("record %d has seq %d", i, rec.Seq)
		}
		if rec.SchemaVersion != SnapshotSchemaVersion {
			t.Fatalf("record %d schema %d", i, rec.SchemaVersion)
		}
		if !rec.Final && rec.Snapshot == nil {
			t.Fatalf("record %d has no snapshot and is not final", i)
		}
	}
	// Steps 0,5,10,15,20 -> 5 snapshots, then the final marker.
	if want := 6; len(recs) != want {
		t.Errorf("got %d records, want %d", len(recs), want)
	}
	// Replay from the middle sees the tail only.
	var tail []SnapshotRecord
	if err := svc.Stream(ctx, st.ID, 3, func(rec SnapshotRecord) error {
		tail = append(tail, rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(tail) != len(recs)-3 {
		t.Fatalf("resumed stream got %d records, want %d", len(tail), len(recs)-3)
	}
	if tail[0].Seq != 3 {
		t.Fatalf("resumed stream starts at seq %d, want 3", tail[0].Seq)
	}
}

func TestStreamedTrajectoryMatchesDirectRun(t *testing.T) {
	svc, _ := testService(t, 1, 4)
	spec := quickJob(64, 20)
	spec.SnapshotEvery = 5
	st, err := svc.SubmitTraced(spec, obs.TraceContext{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var got []SnapshotJSON
	if err := svc.Stream(ctx, st.ID, 0, func(rec SnapshotRecord) error {
		if rec.Snapshot != nil {
			got = append(got, *rec.Snapshot)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// The same spec run directly must produce the same energies: serving
	// changes scheduling, never physics.
	want := runDirect(t, spec)
	if len(got) != len(want) {
		t.Fatalf("served %d snapshots, direct run %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Step != want[i].Step || got[i].Total != want[i].Total {
			t.Fatalf("snapshot %d: served {step %d, E %g}, direct {step %d, E %g}",
				i, got[i].Step, got[i].Total, want[i].Step, want[i].Total)
		}
	}
}

// runDirect runs the spec through sim.Run on a fresh engine, bypassing the
// service.
func runDirect(t *testing.T, spec JobSpec) []sim.Snapshot {
	t.Helper()
	o := obs.New()
	pool, err := NewPool(1, gpusim.TestDevice(), o)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := pool.all[0].engine(spec.Plan, 0.6, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := spec.System()
	if err != nil {
		t.Fatal(err)
	}
	ig, err := integrate.New("leapfrog")
	if err != nil {
		t.Fatal(err)
	}
	snaps, err := sim.Run(sys, eng, ig, sim.Config{
		DT:            float32(spec.DT),
		Steps:         spec.Steps,
		SnapshotEvery: spec.SnapshotEvery,
		G:             1,
		Eps:           0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	return snaps
}
