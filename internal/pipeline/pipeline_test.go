package pipeline

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cl"
	"repro/internal/gpusim"
	"repro/internal/obs"
)

func newQueue(t *testing.T) (*cl.Context, *cl.Queue) {
	t.Helper()
	ctx, err := cl.NewContext(gpusim.TestDevice())
	if err != nil {
		t.Fatalf("NewContext: %v", err)
	}
	return ctx, ctx.NewQueue()
}

func hostStage(name string, kind Kind, sec float64, deps ...string) Stage {
	return Stage{Name: name, Kind: kind, Deps: deps,
		Run: func(ec *ExecCtx) (*cl.Event, error) {
			return ec.Queue.EnqueueHostWork(name, sec, ec.Deps...), nil
		}}
}

func TestGraphValidateErrors(t *testing.T) {
	cases := []struct {
		build func() *Graph
		want  string
	}{
		{func() *Graph {
			return NewGraph("g").Add(hostStage("a", Host, 1)).Add(hostStage("a", Host, 1))
		}, "duplicate"},
		{func() *Graph {
			return NewGraph("g").Add(hostStage("a", Host, 1, "missing"))
		}, "unknown stage"},
		{func() *Graph {
			return NewGraph("g").Add(hostStage("a", Host, 1, "b")).Add(hostStage("b", Host, 1, "a"))
		}, "cycle"},
		{func() *Graph {
			return NewGraph("g").Add(Stage{Name: "a"})
		}, "no Run"},
		{func() *Graph {
			return NewGraph("g").Add(Stage{Run: func(*ExecCtx) (*cl.Event, error) { return nil, nil }})
		}, "empty name"},
	}
	for _, c := range cases {
		if _, err := c.build().Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Validate = %v, want error containing %q", err, c.want)
		}
	}
}

// TestExecuteTopoOrderDeterministic: among ready stages insertion order
// wins, so the executed enqueue order is reproducible run to run.
func TestExecuteTopoOrderDeterministic(t *testing.T) {
	_, q := newQueue(t)
	g := NewGraph("order").
		Add(hostStage("b", Host, 1e-3)).
		Add(hostStage("a", Host, 1e-3)).
		Add(hostStage("c", Host, 1e-3, "a", "b"))
	sched, err := g.Execute(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, sp := range sched.Spans {
		names = append(names, sp.Stage)
	}
	if got := strings.Join(names, ","); got != "b,a,c" {
		t.Errorf("execution order %s, want b,a,c", got)
	}
}

// TestExecuteInOrderSchedule: on the default in-order queue the executed
// schedule is serial, and the schedule's sums match the queue profile.
func TestExecuteInOrderSchedule(t *testing.T) {
	ctx, q := newQueue(t)
	buf := ctx.Device().NewBufferF32("data", 64)
	data := make([]float32, 64)
	g := NewGraph("serial").
		Add(hostStage("tree", Tree, 2e-3)).
		Add(hostStage("list", List, 1e-3, "tree")).
		Add(Stage{Name: "up", Kind: Upload, Deps: []string{"list"},
			Run: func(ec *ExecCtx) (*cl.Event, error) { return ec.Queue.EnqueueWriteF32(buf, data, ec.Deps...) }}).
		Add(Stage{Name: "force", Kind: Kernel, Deps: []string{"up"},
			Run: func(ec *ExecCtx) (*cl.Event, error) {
				return ec.Queue.EnqueueNDRange("k", gpusim.PerItem(func(wi *gpusim.Item) { wi.Flops(16) }),
					gpusim.LaunchParams{Global: 8, Local: 8}, ec.Deps...)
			}}).
		Add(Stage{Name: "down", Kind: Download, Deps: []string{"force"},
			Run: func(ec *ExecCtx) (*cl.Event, error) { return ec.Queue.EnqueueReadF32(buf, data, ec.Deps...) }})

	o := obs.New()
	sched, err := g.Execute(q, o)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sched.HostSeconds(), 3e-3; math.Abs(got-want) > 1e-12 {
		t.Errorf("HostSeconds = %g, want %g", got, want)
	}
	p := q.Profile()
	if got, want := sched.DeviceSeconds(), p.KernelSeconds+p.TransferSeconds; math.Abs(got-want) > 1e-15 {
		t.Errorf("DeviceSeconds = %g, want %g", got, want)
	}
	serial := sched.HostSeconds() + sched.DeviceSeconds()
	if got, want := serial, p.TotalSeconds(); math.Abs(got-want) > 1e-15 {
		t.Errorf("host + device seconds = %g, want %g", got, want)
	}
	// In-order: no overlap, makespan == serial.
	if got, want := sched.MakespanSeconds(), serial; math.Abs(got-want) > 1e-15 {
		t.Errorf("MakespanSeconds = %g, want serial %g", got, want)
	}
	if got := len(sched.Launches()); got != 1 {
		t.Errorf("%d launches, want 1", got)
	}
	// Per-stage obs spans ride the modelled timeline.
	var stageSpans int
	for _, sp := range o.Trace.Spans() {
		if sp.Category == "stage" {
			stageSpans++
			if sp.Domain != obs.DomainModelled {
				t.Errorf("stage span %q on domain %d", sp.Name, sp.Domain)
			}
		}
	}
	if stageSpans != 5 {
		t.Errorf("%d stage spans, want 5", stageSpans)
	}
}

// TestExecuteNilEventStage: a no-op stage yields a zero-length span pinned
// at its dependencies' completion.
func TestExecuteNilEventStage(t *testing.T) {
	_, q := newQueue(t)
	g := NewGraph("noop").
		Add(hostStage("a", Host, 2e-3)).
		Add(Stage{Name: "skip", Kind: Upload, Deps: []string{"a"},
			Run: func(ec *ExecCtx) (*cl.Event, error) { return nil, nil }}).
		Add(hostStage("b", Host, 1e-3, "skip"))
	sched, err := g.Execute(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	sp := sched.Spans[1]
	if sp.Seconds() != 0 {
		t.Errorf("no-op stage has duration %g", sp.Seconds())
	}
	if math.Abs(sp.Start-2e-3) > 1e-12 {
		t.Errorf("no-op stage pinned at %g, want 2e-3", sp.Start)
	}
}

func TestRunnerSerialVsOverlap(t *testing.T) {
	const host, dev = 3e-3, 5e-3
	serial := &Runner{Mode: Serial}
	overlap := &Runner{Mode: Overlap}
	var last float64
	for i := 0; i < 4; i++ {
		serial.Account(host, dev)
		last = overlap.Account(host, dev)
	}
	if got, want := serial.ExecutedSeconds(), 4*(host+dev); math.Abs(got-want) > 1e-12 {
		t.Errorf("serial executed = %g, want %g", got, want)
	}
	// Pipeline fill: first step pays host+dev; the remaining three pay
	// max(host, dev) = dev.
	if got, want := overlap.ExecutedSeconds(), host+4*dev; math.Abs(got-want) > 1e-12 {
		t.Errorf("overlap executed = %g, want %g", got, want)
	}
	// Steady state: the last step advanced the timeline by the device chain.
	if math.Abs(last-dev) > 1e-12 {
		t.Errorf("overlap steady-state step = %g, want %g", last, dev)
	}
}

// TestRunnerHostBound: when the host chain dominates, it sets the pace.
func TestRunnerHostBound(t *testing.T) {
	r := &Runner{Mode: Overlap}
	const host, dev = 7e-3, 2e-3
	for i := 0; i < 3; i++ {
		r.Account(host, dev)
	}
	// Host chain runs continuously: 3*host, plus the last device chain
	// draining after the final build.
	if got, want := r.ExecutedSeconds(), 3*host+dev; math.Abs(got-want) > 1e-12 {
		t.Errorf("executed = %g, want %g", got, want)
	}
}

func TestRunnerWindowJoin(t *testing.T) {
	r := &Runner{Mode: Overlap}
	const host, dev = 3e-3, 5e-3
	r.BeginWindow()
	r.Account(host, dev)
	r.Account(host, dev)
	w1 := r.EndWindow()
	if want := host + 2*dev; math.Abs(w1-want) > 1e-12 {
		t.Errorf("window 1 = %g, want %g", w1, want)
	}
	// After the join, the next window re-pays the pipeline fill.
	r.BeginWindow()
	r.Account(host, dev)
	w2 := r.EndWindow()
	if want := host + dev; math.Abs(w2-want) > 1e-12 {
		t.Errorf("window 2 = %g, want %g", w2, want)
	}
	if got, want := r.ExecutedSeconds(), w1+w2; math.Abs(got-want) > 1e-12 {
		t.Errorf("total executed = %g, want %g", got, want)
	}
}

func TestParseMode(t *testing.T) {
	for s, want := range map[string]Mode{"serial": Serial, "overlap": Overlap} {
		m, err := ParseMode(s)
		if err != nil || m != want {
			t.Errorf("ParseMode(%q) = %v, %v", s, m, err)
		}
		if m.String() != s {
			t.Errorf("Mode(%v).String() = %q", m, m.String())
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Error("ParseMode(bogus) succeeded")
	}
}
