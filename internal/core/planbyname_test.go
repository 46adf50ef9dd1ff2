package core

import (
	"strings"
	"testing"

	"repro/internal/bh"
	"repro/internal/cl"
	"repro/internal/gpusim"
	"repro/internal/ic"
	"repro/internal/obs"
	"repro/internal/pp"
)

func TestNewPlanByNameCoversEveryListedName(t *testing.T) {
	for _, name := range PlanNames() {
		p, err := NewPlanByName(name, WithDevice(gpusim.TestDevice()))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		sys := ic.Plummer(256, 1)
		if _, err := p.Accel(sys); err != nil {
			t.Errorf("%s: Accel: %v", name, err)
		}
	}
}

func TestNewPlanByNameRejectsBadNames(t *testing.T) {
	for _, name := range []string{"", "k-parallel", "jw-parallel-x1", "jw-parallel-x", "jw-parallel-xq",
		"jw-parallel-x65", "jw-parallel-x9223372036854775807",
		"jw-parallel-x02", "jw-parallel-x+2", "jw-parallel-x0000000002"} {
		if _, err := NewPlanByName(name); err == nil {
			t.Errorf("name %q accepted", name)
		}
		if err := CheckPlanName(name); err == nil {
			t.Errorf("CheckPlanName(%q) accepted", name)
		}
	}
	if err := CheckPlanName("jw-parallel-x65"); err == nil || !strings.Contains(err.Error(), "64") {
		t.Errorf("device-cap error should name the limit, got %v", err)
	}
	for _, name := range append(PlanNames(), "jw-parallel-x64") {
		if err := CheckPlanName(name); err != nil {
			t.Errorf("CheckPlanName(%q): %v", name, err)
		}
	}
	if _, err := NewPlanByName("nope"); err == nil || !strings.Contains(err.Error(), "jw-parallel") {
		t.Errorf("unknown-plan error should list known names, got %v", err)
	}
}

func TestNewPlanByNameMultiDeviceSuffix(t *testing.T) {
	p, err := NewPlanByName("jw-parallel-x3", WithDevice(gpusim.TestDevice()))
	if err != nil {
		t.Fatal(err)
	}
	mjw, ok := p.(*MultiJW)
	if !ok || mjw.Devices != 3 {
		t.Fatalf("jw-parallel-x3 built %T (devices=%d)", p, mjw.Devices)
	}
}

func TestNewPlanByNameAppliesTuning(t *testing.T) {
	p, err := NewPlanByName("jw-parallel",
		WithDevice(gpusim.TestDevice()),
		WithTuning(16, 128, 99),
		WithBHOptions(bh.Options{Theta: 0.8, Eps: 0.1, LeafCap: 8, G: 1}))
	if err != nil {
		t.Fatal(err)
	}
	jw := p.(*JWParallel)
	if jw.GroupCap != 16 || jw.LocalSize != 128 || jw.QueueTarget != 99 {
		t.Errorf("tuning not applied: cap=%d local=%d queues=%d", jw.GroupCap, jw.LocalSize, jw.QueueTarget)
	}
	if jw.Opt.Theta != 0.8 {
		t.Errorf("BH options not applied: theta=%g", jw.Opt.Theta)
	}
	// Zero tuning values keep the plan defaults.
	p2, err := NewPlanByName("jw-parallel", WithDevice(gpusim.TestDevice()), WithTuning(0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	jw2 := p2.(*JWParallel)
	if jw2.GroupCap != 24 || jw2.LocalSize != 64 || jw2.QueueTarget != 0 {
		t.Errorf("defaults lost under zero tuning: cap=%d local=%d queues=%d", jw2.GroupCap, jw2.LocalSize, jw2.QueueTarget)
	}
	ip, err := NewPlanByName("i-parallel", WithDevice(gpusim.TestDevice()), WithTuning(0, 128, 0), WithPPParams(pp.Params{G: 2, Eps: 0.1}))
	if err != nil {
		t.Fatal(err)
	}
	if got := ip.(*IParallel); got.GroupSize != 128 || got.Params.G != 2 {
		t.Errorf("PP tuning/params not applied: size=%d G=%g", got.GroupSize, got.Params.G)
	}
}

func TestNewPlanByNameSharesContext(t *testing.T) {
	clCtx, err := cl.NewContext(gpusim.TestDevice())
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewPlanByName("i-parallel", WithCLContext(clCtx))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPlanByName("jw-parallel", WithCLContext(clCtx))
	if err != nil {
		t.Fatal(err)
	}
	if a.(*IParallel).ctx != clCtx || b.(*JWParallel).ctx != clCtx {
		t.Error("WithCLContext did not pin the plans to the shared context")
	}
}

// TestNewPlanByNameWiresObs checks that WithObs reaches the plan's queue: a
// warm evaluation adds one modelled span per queue command, and nothing
// else to the modelled timeline.
func TestNewPlanByNameWiresObs(t *testing.T) {
	for _, c := range []struct {
		name     string
		commands int
	}{{"i-parallel", 3}, {"jw-parallel", 10}} {
		o := obs.New()
		p, err := NewPlanByName(c.name, WithDevice(gpusim.TestDevice()), WithObs(o))
		if err != nil {
			t.Fatal(err)
		}
		modelled := func() int {
			n := 0
			for _, sp := range o.Trace.Spans() {
				if sp.Domain == obs.DomainModelled {
					n++
				}
			}
			return n
		}
		sys := ic.Plummer(256, 2)
		if _, err := p.Accel(sys); err != nil {
			t.Fatal(err)
		}
		before := modelled()
		if _, err := p.Accel(sys); err != nil {
			t.Fatal(err)
		}
		if got := modelled() - before; got != c.commands {
			t.Errorf("%s: a warm evaluation added %d modelled spans, want %d (one per command)", c.name, got, c.commands)
		}
	}
}

// TestNewPlanByNameContextMatchesDevice checks that a plan pinned to a
// caller's HD5850 context (the serve pool's route) computes the same forces
// as one on the default device.
func TestNewPlanByNameContextMatchesDevice(t *testing.T) {
	clCtx, err := cl.NewContext(gpusim.HD5850())
	if err != nil {
		t.Fatal(err)
	}
	pinnedSys := ic.Plummer(512, 7)
	pinned := planOn[*JWParallel](t, clCtx, "jw-parallel")
	if _, err := pinned.Accel(pinnedSys); err != nil {
		t.Fatal(err)
	}
	namedSys := ic.Plummer(512, 7)
	named, err := NewPlanByName("jw-parallel")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := named.Accel(namedSys); err != nil {
		t.Fatal(err)
	}
	for i := range pinnedSys.Acc {
		if pinnedSys.Acc[i] != namedSys.Acc[i] {
			t.Fatalf("acceleration %d diverged between context-pinned and default-device construction", i)
		}
	}
}

func TestNewEngineByName(t *testing.T) {
	o := obs.New()
	eng, err := NewEngineByName("jw-parallel", WithDevice(gpusim.TestDevice()), WithObs(o))
	if err != nil {
		t.Fatal(err)
	}
	if eng.Name() != "jw-parallel" {
		t.Errorf("engine name %q", eng.Name())
	}
	if _, err := eng.Accel(ic.Plummer(256, 3)); err != nil {
		t.Fatal(err)
	}
	if o.Counter("engine.evaluations").Value() != 1 {
		t.Error("engine telemetry not wired by NewEngineByName")
	}
	if _, err := NewEngineByName("nope"); err == nil {
		t.Error("unknown engine name accepted")
	}
}
