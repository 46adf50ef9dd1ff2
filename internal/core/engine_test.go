package core

import (
	"testing"

	"repro/internal/bh"
	"repro/internal/gpusim"
	"repro/internal/ic"
	"repro/internal/pipeline"
)

func TestEngineAccumulates(t *testing.T) {
	ctx := newHD5850Context(t)
	eng := NewEngine(planOn[*JWParallel](t, ctx, "jw-parallel"))
	sys := ic.Plummer(512, 1)

	if eng.Name() != "jw-parallel" {
		t.Errorf("Name = %q", eng.Name())
	}
	var wantInter int64
	for i := 0; i < 3; i++ {
		n, err := eng.Accel(sys)
		if err != nil {
			t.Fatal(err)
		}
		wantInter += n
	}
	if eng.Evaluations != 3 {
		t.Errorf("Evaluations = %d", eng.Evaluations)
	}
	if eng.Interactions != wantInter {
		t.Errorf("Interactions = %d, want %d", eng.Interactions, wantInter)
	}
	if eng.KernelSeconds <= 0 || eng.TotalSeconds() <= eng.KernelSeconds {
		t.Errorf("times: kernel %g total %g", eng.KernelSeconds, eng.TotalSeconds())
	}
	if eng.SustainedGFLOPS() <= 0 {
		t.Error("no sustained rate")
	}
}

func TestWParallelExactVsWalkEval(t *testing.T) {
	opt := bh.DefaultOptions()
	n := 2048
	sys := ic.Plummer(n, 77)

	ctx := newHD5850Context(t)
	plan := planOn[*WParallel](t, ctx, "w-parallel", WithBHOptions(opt))
	gpu := sys.Clone()
	if _, err := plan.Accel(gpu); err != nil {
		t.Fatalf("w Accel: %v", err)
	}

	cpu := sys.Clone()
	tree, err := bh.Build(cpu, opt)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := tree.BuildWalks(plan.GroupCap)
	if err != nil {
		t.Fatal(err)
	}
	ws.Eval()
	for i := range cpu.Acc {
		if cpu.Acc[i] != gpu.Acc[i] {
			t.Fatalf("body %d: cpu walk eval %v != gpu w %v", i, cpu.Acc[i], gpu.Acc[i])
		}
	}
}

// TestPlanBufferReuse verifies plans reuse device buffers across calls with
// the same N (no unbounded allocation growth in a stepping loop).
func TestPlanBufferReuse(t *testing.T) {
	ctx := newHD5850Context(t)
	plan := planOn[*IParallel](t, ctx, "i-parallel")
	sys := ic.Plummer(256, 1)
	if _, err := plan.Accel(sys); err != nil {
		t.Fatal(err)
	}
	before := [2]*gpusim.Buffer{plan.bufPosM, plan.bufAcc}
	for i := 0; i < 5; i++ {
		if _, err := plan.Accel(sys); err != nil {
			t.Fatal(err)
		}
	}
	if after := [2]*gpusim.Buffer{plan.bufPosM, plan.bufAcc}; after != before {
		t.Error("i-parallel reallocated its device buffers")
	}

	jw := planOn[*JWParallel](t, ctx, "jw-parallel")
	if _, err := jw.Accel(sys); err != nil {
		t.Fatal(err)
	}
	jwBefore := jw.bufs
	for i := 0; i < 5; i++ {
		if _, err := jw.Accel(sys); err != nil {
			t.Fatal(err)
		}
	}
	// The jw pipeline rebuilds walks each call; list lengths can vary a
	// little for a *moving* system, but for identical positions buffers
	// must be reused exactly.
	if jw.bufs != jwBefore {
		t.Error("jw-parallel reallocated its device buffers on identical input")
	}
}

// TestStagingAblationDirection checks the design claim behind jw-parallel:
// removing local-memory staging (reverting to per-lane streaming) slows the
// kernel down.
func TestStagingAblationDirection(t *testing.T) {
	sys := ic.Plummer(2048, 9)
	var kernel [2]float64
	for i, disable := range []bool{false, true} {
		ctx := newHD5850Context(t)
		plan := planOn[*JWParallel](t, ctx, "jw-parallel")
		plan.DisableLDSStaging = disable
		prof, err := plan.Accel(sys.Clone())
		if err != nil {
			t.Fatal(err)
		}
		kernel[i] = prof.Profile.KernelSeconds
	}
	if kernel[1] <= kernel[0] {
		t.Errorf("unstaged (%g) not slower than staged (%g)", kernel[1], kernel[0])
	}
}

// TestQueueBalance verifies the LPT queue builder spreads work evenly.
func TestQueueBalance(t *testing.T) {
	sys := ic.Plummer(8192, 3)
	opt := bh.DefaultOptions()
	d := hostData(t, sys, opt, 24, 64)
	const q = 16
	var queues lpt
	queueWalks, queueDesc := queues.balance(d, nil, q)
	if len(queueDesc) != 2*q {
		t.Fatalf("queueDesc length %d", len(queueDesc))
	}
	if len(queueWalks) != d.numWalks {
		t.Fatalf("queues hold %d walks, want %d", len(queueWalks), d.numWalks)
	}
	// Per-queue cost spread should be tight for thousands of walks.
	loads := make([]int64, q)
	for k := 0; k < q; k++ {
		base, cnt := queueDesc[2*k], queueDesc[2*k+1]
		for _, wid := range queueWalks[base : base+cnt] {
			cntW := int64(d.desc[wid*bhDescStride+1])
			llen := int64(d.desc[wid*bhDescStride+3])
			loads[k] += cntW * llen
		}
	}
	var minL, maxL int64 = loads[0], loads[0]
	for _, l := range loads {
		if l < minL {
			minL = l
		}
		if l > maxL {
			maxL = l
		}
	}
	if float64(maxL) > 1.25*float64(minL) {
		t.Errorf("queue imbalance: min %d max %d", minL, maxL)
	}
	// Every walk appears exactly once.
	seen := make([]bool, d.numWalks)
	for _, wid := range queueWalks {
		if seen[wid] {
			t.Fatalf("walk %d queued twice", wid)
		}
		seen[wid] = true
	}
}

// TestEngineDualAccounting locks the two time accountings: the serial totals
// are mode-independent, while the executed timeline shrinks under
// pipeline.Overlap — bounded below by evals times the analytic steady-state
// step, Profile.PipelinedSeconds() — and coincides with the serial totals
// under pipeline.Serial.
func TestEngineDualAccounting(t *testing.T) {
	sys := ic.Plummer(4096, 1)
	const evals = 6

	// run also returns how far the last evaluation advanced the executed
	// timeline.
	run := func(mode pipeline.Mode) (*Engine, float64) {
		eng := NewEngine(planOn[*JWParallel](t, newHD5850Context(t), "jw-parallel"))
		eng.Mode = mode
		var last float64
		for i := 0; i < evals; i++ {
			before := eng.ExecutedSeconds()
			if _, err := eng.Accel(sys); err != nil {
				t.Fatal(err)
			}
			last = eng.ExecutedSeconds() - before
		}
		return eng, last
	}
	serial, _ := run(pipeline.Serial)
	overlap, lastStep := run(pipeline.Overlap)

	// Serial accumulators are identical: the mode is pure accounting.
	if serial.TotalSeconds() != overlap.TotalSeconds() ||
		serial.KernelSeconds != overlap.KernelSeconds {
		t.Errorf("mode changed the serial totals: %g vs %g",
			serial.TotalSeconds(), overlap.TotalSeconds())
	}
	// Serial mode: executed == serial.
	if d := serial.ExecutedSeconds() - serial.TotalSeconds(); d > 1e-12 || d < -1e-12 {
		t.Errorf("serial executed %g != total %g", serial.ExecutedSeconds(), serial.TotalSeconds())
	}
	// Overlap mode: executed is strictly shorter than serial (jw-parallel has
	// real host work to hide) and no shorter than the analytic steady state.
	if overlap.ExecutedSeconds() >= overlap.TotalSeconds() {
		t.Errorf("overlap executed %g not below serial %g",
			overlap.ExecutedSeconds(), overlap.TotalSeconds())
	}
	if floor := evals * overlap.LastProfile.Profile.PipelinedSeconds(); overlap.ExecutedSeconds() < floor {
		t.Errorf("overlap executed %g below the analytic floor %g",
			overlap.ExecutedSeconds(), floor)
	}
	// The executed steady-state per-step cost matches the analytic
	// Profile.PipelinedSeconds() of a single evaluation.
	want := overlap.LastProfile.Profile.PipelinedSeconds()
	if got := lastStep; got < 0.95*want || got > 1.05*want {
		t.Errorf("steady-state executed step %g, want ~%g", got, want)
	}
	if overlap.SustainedPipelinedGFLOPS() <= overlap.SustainedGFLOPS()*float64(overlap.KernelSeconds)/overlap.TotalSeconds() {
		t.Error("pipelined sustained rate not above the serial-total rate")
	}
}

// TestEngineScheduleRetention: with retention enabled, every evaluation's
// executed stage schedule lands on one continuous merged timeline (each
// evaluation's queue restarts at zero, so spans must be offset, not
// overlapped), bounded by the span cap.
func TestEngineScheduleRetention(t *testing.T) {
	sys := ic.Plummer(1024, 2)
	eng := NewEngine(planOn[*IParallel](t, newHD5850Context(t), "i-parallel"))

	// Retention off by default: nothing retained.
	if _, err := eng.Accel(sys); err != nil {
		t.Fatal(err)
	}
	if sched, _ := eng.RetainedSchedule(); sched != nil {
		t.Fatal("retention must be opt-in")
	}

	eng.RetainSchedules(10_000)
	const evals = 3
	var perEval float64
	for i := 0; i < evals; i++ {
		if _, err := eng.Accel(sys); err != nil {
			t.Fatal(err)
		}
		perEval = eng.LastProfile.Schedule.MakespanSeconds()
	}
	sched, truncated := eng.RetainedSchedule()
	if sched == nil || truncated {
		t.Fatalf("retained schedule missing or truncated (%v)", truncated)
	}
	if want := evals * len(eng.LastProfile.Schedule.Spans); len(sched.Spans) != want {
		t.Fatalf("retained %d spans, want %d", len(sched.Spans), want)
	}
	// Identical evaluations: the merged makespan is evals x one makespan, and
	// each evaluation's spans sit strictly after the previous evaluation's.
	if got, want := sched.MakespanSeconds(), float64(evals)*perEval; got < want*0.999 || got > want*1.001 {
		t.Fatalf("merged makespan %g, want ~%g", got, want)
	}
	per := len(sched.Spans) / evals
	for ev := 1; ev < evals; ev++ {
		var prevEnd float64
		for _, sp := range sched.Spans[:ev*per] {
			if sp.End > prevEnd {
				prevEnd = sp.End
			}
		}
		for _, sp := range sched.Spans[ev*per : (ev+1)*per] {
			if sp.Start < prevEnd-1e-12 {
				t.Fatalf("evaluation %d span starts at %g before previous end %g", ev, sp.Start, prevEnd)
			}
		}
	}
	// The mutated copy must not alias the engine's retained state.
	sched.Spans[0].Start = -1
	again, _ := eng.RetainedSchedule()
	if again.Spans[0].Start == -1 {
		t.Fatal("RetainedSchedule returned aliased spans")
	}

	// A tight cap truncates; re-arming resets.
	eng.RetainSchedules(2)
	if _, err := eng.Accel(sys); err != nil {
		t.Fatal(err)
	}
	sched, truncated = eng.RetainedSchedule()
	if len(sched.Spans) != 2 || !truncated {
		t.Fatalf("cap not honoured: %d spans, truncated=%v", len(sched.Spans), truncated)
	}
}

// TestEngineBatchWindows: FlushBatch joins the pipeline, so the next window
// re-pays the fill; windows compose to the full executed timeline.
func TestEngineBatchWindows(t *testing.T) {
	sys := ic.Plummer(2048, 4)
	eng := NewEngine(planOn[*JWParallel](t, newHD5850Context(t), "jw-parallel"))
	eng.Mode = pipeline.Overlap

	var windows float64
	for w := 0; w < 3; w++ {
		eng.StartBatch()
		for i := 0; i < 2; i++ {
			if _, err := eng.Accel(sys); err != nil {
				t.Fatal(err)
			}
		}
		windows += eng.FlushBatch()
	}
	if d := windows - eng.ExecutedSeconds(); d > 1e-12 || d < -1e-12 {
		t.Errorf("window sum %g != executed %g", windows, eng.ExecutedSeconds())
	}
	if eng.ExecutedSeconds() >= eng.TotalSeconds() {
		t.Errorf("windowed executed %g not below serial %g", eng.ExecutedSeconds(), eng.TotalSeconds())
	}
}

// TestEngineSetHostWorkersReachesBuilders checks the one host-workers route:
// Engine.SetHostWorkers caps the pooled tree builder of every BH plan, and
// an evaluation keeps the cap.
func TestEngineSetHostWorkersReachesBuilders(t *testing.T) {
	for _, name := range []string{"w-parallel", "jw-parallel", "jw-parallel-x2"} {
		eng, err := NewEngineByName(name, WithDevice(gpusim.TestDevice()))
		if err != nil {
			t.Fatal(err)
		}
		eng.SetHostWorkers(1)
		if _, err := eng.Accel(ic.Plummer(512, 4)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var d *bhHostData
		switch p := eng.Plan.(type) {
		case *WParallel:
			d = &p.data
		case *JWParallel:
			d = &p.data
		case *MultiJW:
			d = &p.data
		}
		if d == nil || d.builder.Workers != 1 {
			t.Errorf("%s: builder workers not capped to 1", name)
		}
	}
}
