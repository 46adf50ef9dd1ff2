package sim

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/body"
	"repro/internal/core"
	"repro/internal/gpusim"
	"repro/internal/ic"
	"repro/internal/integrate"
	"repro/internal/pp"
)

// bareEngine implements nothing beyond the required Engine pair.
type bareEngine struct{}

func (bareEngine) Name() string { return "bare" }
func (bareEngine) Accel(s *body.System) (int64, error) {
	s.ZeroAcc()
	return int64(s.N()), nil
}

// batchOnlyEngine implements BatchEngine but nothing else; it counts window
// open/close pairs so tests can assert Run leaves no window dangling.
type batchOnlyEngine struct {
	bareEngine
	starts, flushes int
}

func (e *batchOnlyEngine) StartBatch()         { e.starts++ }
func (e *batchOnlyEngine) FlushBatch() float64 { e.flushes++; return 0 }

// ctxEngine records the context it was handed and fails after a set number
// of evaluations when its context is cancelled.
type ctxEngine struct {
	bareEngine
	got   context.Context
	calls int
}

func (e *ctxEngine) AccelContext(ctx context.Context, s *body.System) (int64, error) {
	e.got = ctx
	e.calls++
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	s.ZeroAcc()
	return int64(s.N()), nil
}

func TestCapsPartialImplementations(t *testing.T) {
	cases := []struct {
		name                                         string
		eng                                          Engine
		timed, batch, ctxAware, executed, observable bool
		caps                                         string
	}{
		{"bare", bareEngine{}, false, false, false, false, false, ""},
		{"timed-only", &timedTestEngine{}, true, false, false, false, false, "timed"},
		{"batch-only", &batchOnlyEngine{}, false, true, false, false, false, "batch"},
		{"context-only", &ctxEngine{}, false, false, true, false, false, "context"},
		{"cpu-pp", &DirectEngine{Params: pp.DefaultParams()}, false, false, false, false, false, ""},
	}
	for _, tc := range cases {
		c := Caps(tc.eng)
		if (c.Timed != nil) != tc.timed || (c.Batch != nil) != tc.batch ||
			(c.Context != nil) != tc.ctxAware || (c.Executed != nil) != tc.executed ||
			(c.Observable != nil) != tc.observable {
			t.Errorf("%s: caps = %q (timed=%v batch=%v context=%v executed=%v observable=%v)",
				tc.name, c, c.Timed != nil, c.Batch != nil, c.Context != nil, c.Executed != nil, c.Observable != nil)
		}
		if c.String() != tc.caps {
			t.Errorf("%s: String() = %q, want %q", tc.name, c, tc.caps)
		}
	}
}

func TestCapsGPUEngineImplementsEverything(t *testing.T) {
	eng, err := core.NewEngineByName("jw-parallel", core.WithDevice(gpusim.TestDevice()))
	if err != nil {
		t.Fatal(err)
	}
	c := Caps(eng)
	if want := "timed,batch,context,executed,observable,hostbuild,hostworkers"; c.String() != want {
		t.Errorf("core.Engine caps = %q, want %q", c, want)
	}
}

// workersEngine records every SetHostWorkers call and the evaluations made
// before it.
type workersEngine struct {
	bareEngine
	set         []int
	accels      int
	accelsAtSet int
}

func (e *workersEngine) SetHostWorkers(n int) {
	e.set = append(e.set, n)
	e.accelsAtSet = e.accels
}

func (e *workersEngine) Accel(s *body.System) (int64, error) {
	e.accels++
	return e.bareEngine.Accel(s)
}

// TestRunContextAppliesHostWorkers pins the one route for the host-build
// parallelism cap: a non-zero Config.HostWorkers reaches the engine once,
// before its first evaluation; zero leaves the engine's default alone.
func TestRunContextAppliesHostWorkers(t *testing.T) {
	for _, n := range []int{0, 1, 3} {
		eng := &workersEngine{}
		if _, err := RunContext(context.Background(), ic.Plummer(16, 1), eng, &integrate.Leapfrog{}, Config{
			DT: 0.01, Steps: 2, G: 1, Eps: 0.05, HostWorkers: n,
		}); err != nil {
			t.Fatal(err)
		}
		if eng.accels == 0 {
			t.Fatalf("n=%d: engine never evaluated", n)
		}
		switch {
		case n == 0 && len(eng.set) != 0:
			t.Errorf("n=0: SetHostWorkers called with %v", eng.set)
		case n != 0 && (len(eng.set) != 1 || eng.set[0] != n):
			t.Errorf("n=%d: SetHostWorkers calls %v, want exactly [%d]", n, eng.set, n)
		case n != 0 && eng.accelsAtSet != 0:
			t.Errorf("n=%d: SetHostWorkers came after %d evaluations", n, eng.accelsAtSet)
		}
	}
}

func TestRunContextHonorsDeadline(t *testing.T) {
	s := ic.Plummer(16, 1)
	// An engine slow enough that a 30ms deadline lands mid-run.
	slow := &slowEngine{delay: 5 * time.Millisecond}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	snaps, err := RunContext(ctx, s, slow, &integrate.Leapfrog{}, Config{
		DT: 0.01, Steps: 10000, SnapshotEvery: 1, G: 1, Eps: 0.05,
	})
	if err == nil {
		t.Fatal("deadline shorter than the run did not stop it")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if len(snaps) == 0 {
		t.Error("no snapshots recorded before the deadline")
	}
	if len(snaps) > 10000 {
		t.Error("run completed despite the deadline")
	}
}

type slowEngine struct {
	bareEngine
	delay time.Duration
}

func (e *slowEngine) Accel(s *body.System) (int64, error) {
	time.Sleep(e.delay)
	s.ZeroAcc()
	return int64(s.N()), nil
}

func TestRunContextCancelledUpFront(t *testing.T) {
	s := ic.Plummer(16, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	snaps, err := RunContext(ctx, s, bareEngine{}, &integrate.Leapfrog{}, Config{
		DT: 0.01, Steps: 5, G: 1, Eps: 0.05,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The step-0 snapshot precedes the first cancellation check.
	if len(snaps) != 1 {
		t.Errorf("got %d snapshots, want the step-0 record only", len(snaps))
	}
}

// cancellingBatchEngine cancels its context partway into a pipeline window,
// so RunContext's next between-steps check fires while the window is open.
type cancellingBatchEngine struct {
	batchOnlyEngine
	cancel context.CancelFunc
	calls  int
}

func (e *cancellingBatchEngine) Accel(s *body.System) (int64, error) {
	e.calls++
	if e.calls == 3 {
		e.cancel()
	}
	s.ZeroAcc()
	return int64(s.N()), nil
}

func TestRunContextClosesOpenWindowOnCancel(t *testing.T) {
	s := ic.Plummer(16, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	eng := &cancellingBatchEngine{cancel: cancel}
	_, err := RunContext(ctx, s, eng, &integrate.Leapfrog{}, Config{
		DT: 0.01, Steps: 100, G: 1, Eps: 0.05, PipelineWindow: 50,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if eng.starts == 0 || eng.starts != eng.flushes {
		t.Errorf("window open/close mismatch after cancel: %d starts, %d flushes", eng.starts, eng.flushes)
	}
}

func TestRunContextThreadsContextIntoEngine(t *testing.T) {
	s := ic.Plummer(16, 1)
	eng := &ctxEngine{}
	type key struct{}
	ctx := context.WithValue(context.Background(), key{}, "threaded")
	if _, err := RunContext(ctx, s, eng, &integrate.Leapfrog{}, Config{
		DT: 0.01, Steps: 2, G: 1, Eps: 0.05,
	}); err != nil {
		t.Fatal(err)
	}
	if eng.calls == 0 || eng.got == nil || eng.got.Value(key{}) != "threaded" {
		t.Errorf("engine saw %d calls, ctx value %v; want the run's context", eng.calls, eng.got)
	}
}

// TestRunMatchesRunContext pins the compatibility contract: Run is exactly
// RunContext under a background context, so trajectories and snapshots are
// identical between the old and new entry points.
func TestRunMatchesRunContext(t *testing.T) {
	cfg := Config{DT: 0.01, Steps: 12, SnapshotEvery: 3, G: 1, Eps: 0.05}
	oldSys := ic.Plummer(128, 9)
	oldSnaps, err := Run(oldSys, &DirectEngine{Params: pp.DefaultParams()}, &integrate.Leapfrog{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	newSys := ic.Plummer(128, 9)
	newSnaps, err := RunContext(context.Background(), newSys, &DirectEngine{Params: pp.DefaultParams()}, &integrate.Leapfrog{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range oldSys.Pos {
		if oldSys.Pos[i] != newSys.Pos[i] || oldSys.Vel[i] != newSys.Vel[i] {
			t.Fatalf("body %d diverged between Run and RunContext", i)
		}
	}
	if len(oldSnaps) != len(newSnaps) {
		t.Fatalf("snapshot counts differ: %d vs %d", len(oldSnaps), len(newSnaps))
	}
	for i := range oldSnaps {
		if oldSnaps[i].Total != newSnaps[i].Total || oldSnaps[i].Step != newSnaps[i].Step {
			t.Errorf("snapshot %d differs: %+v vs %+v", i, oldSnaps[i], newSnaps[i])
		}
	}
}

func TestOnSnapshotStreamsEveryRecord(t *testing.T) {
	s := ic.Plummer(32, 2)
	var streamed []Snapshot
	snaps, err := Run(s, &DirectEngine{Params: pp.DefaultParams()}, &integrate.Leapfrog{}, Config{
		DT: 0.01, Steps: 6, SnapshotEvery: 2, G: 1, Eps: 0.05,
		OnSnapshot: func(sn Snapshot) error { streamed = append(streamed, sn); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(snaps) {
		t.Fatalf("streamed %d snapshots, recorded %d", len(streamed), len(snaps))
	}
	for i := range snaps {
		if streamed[i] != snaps[i] {
			t.Errorf("streamed snapshot %d differs from recorded", i)
		}
	}
}

func TestOnSnapshotErrorAbortsRun(t *testing.T) {
	s := ic.Plummer(32, 2)
	sinkErr := errors.New("sink full")
	snaps, err := Run(s, &DirectEngine{Params: pp.DefaultParams()}, &integrate.Leapfrog{}, Config{
		DT: 0.01, Steps: 10, SnapshotEvery: 1, G: 1, Eps: 0.05,
		OnSnapshot: func(sn Snapshot) error {
			if sn.Step >= 2 {
				return sinkErr
			}
			return nil
		},
	})
	if !errors.Is(err, sinkErr) {
		t.Fatalf("err = %v, want the sink error", err)
	}
	if len(snaps) > 3 {
		t.Errorf("run continued past the failing sink: %d snapshots", len(snaps))
	}
}
