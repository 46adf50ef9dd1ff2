package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/cl"
	"repro/internal/gpusim"
	"repro/internal/ic"
	"repro/internal/obs"
	"repro/internal/pp"
	"repro/internal/vec"
)

func newTestContext(t testing.TB) *cl.Context {
	t.Helper()
	ctx, err := cl.NewContext(gpusim.TestDevice())
	if err != nil {
		t.Fatalf("NewContext: %v", err)
	}
	return ctx
}

// jerkRef computes the reference accelerations and jerks for the active set.
func jerkRef(t *testing.T, n int, seed uint64, active []int, params pp.Params) ([]vec.V3, []vec.V3) {
	t.Helper()
	s := ic.Plummer(n, seed)
	jerk := make([]vec.V3, n)
	pp.ScalarJerk(s, active, jerk, params)
	return s.Acc, jerk
}

// checkJerkAgainstRef runs the unit on an active set and compares both
// outputs against pp.ScalarJerk.
func checkJerkAgainstRef(t *testing.T, u *jerkUnit, n int, seed uint64, active []int, wantPlan string) {
	t.Helper()
	if got := u.selectPlan(len(active)); got != wantPlan {
		t.Fatalf("selectPlan(%d) = %q, want %q", len(active), got, wantPlan)
	}
	s := ic.Plummer(n, seed)
	jerk := make([]vec.V3, n)
	prof, err := u.eval(s, active, jerk)
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	if prof.Plan != "jerk:"+wantPlan {
		t.Fatalf("profile plan %q, want %q", prof.Plan, "jerk:"+wantPlan)
	}
	if prof.Flops != prof.Interactions*pp.FlopsPerJerkInteraction {
		t.Fatalf("flops %d != interactions %d x %d", prof.Flops, prof.Interactions, pp.FlopsPerJerkInteraction)
	}

	wantAcc, wantJerk := jerkRef(t, n, seed, active, u.params)
	const tol = 1e-5
	relErr := func(got, want vec.V3) float64 {
		return float64(got.Sub(want).Norm()) / (float64(want.Norm()) + 1e-9)
	}
	for _, i := range active {
		if e := relErr(s.Acc[i], wantAcc[i]); e > tol {
			t.Fatalf("%s: body %d acc %v != ref %v (rel %.3g)", wantPlan, i, s.Acc[i], wantAcc[i], e)
		}
		if e := relErr(jerk[i], wantJerk[i]); e > tol {
			t.Fatalf("%s: body %d jerk %v != ref %v (rel %.3g)", wantPlan, i, jerk[i], wantJerk[i], e)
		}
	}
	// Inactive slots stay untouched.
	for i := 0; i < n; i++ {
		activeSet := false
		for _, a := range active {
			if a == i {
				activeSet = true
				break
			}
		}
		if !activeSet && jerk[i] != (vec.V3{}) {
			t.Fatalf("%s: inactive body %d jerk written: %v", wantPlan, i, jerk[i])
		}
	}
}

// TestJerkUnitIParallelMatchesScalar validates the i-parallel jerk kernel:
// a full active block on the tiny test device (2 CUs, iGroup shrunk to fit
// its 4 KiB LDS) is large enough to fill the device, so the selector picks
// i-parallel.
func TestJerkUnitIParallelMatchesScalar(t *testing.T) {
	ctx := newTestContext(t)
	u := newJerkUnit(ctx, pp.Params{G: 1, Eps: 0.05})
	threshold := ctx.Device().Config.ComputeUnits * u.iGroup
	n := 2 * threshold
	active := make([]int, n)
	for i := range active {
		active[i] = i
	}
	checkJerkAgainstRef(t, u, n, 3, active, "i-parallel")
}

// TestJerkUnitJParallelMatchesScalar validates the j-parallel jerk kernel on
// a shrunken active block, including non-contiguous active indices.
func TestJerkUnitJParallelMatchesScalar(t *testing.T) {
	ctx := newTestContext(t)
	u := newJerkUnit(ctx, pp.Params{G: 1, Eps: 0.05})
	n := 2 * ctx.Device().Config.ComputeUnits * u.iGroup
	active := []int{0, 3, 17, 42, 100, n - 1}
	checkJerkAgainstRef(t, u, n, 3, active, "j-parallel")
}

// TestEngineAccelJerkSwitchesPlans drives the engine's jerk path through a
// shrinking active set, as the Hermite block scheduler does, and asserts via
// the obs counters that the dynamic selector actually switched execution
// plans mid-run — the observable the bench harness and dashboards key on.
func TestEngineAccelJerkSwitchesPlans(t *testing.T) {
	ctx := newTestContext(t)
	eng := NewEngine(planOn[*IParallel](t, ctx, "i-parallel", WithPPParams(pp.Params{G: 1, Eps: 0.05})))
	o := obs.New()
	eng.SetObs(o)
	if !eng.SupportsJerk() {
		t.Fatal("PP engine should support the jerk path")
	}

	threshold := ctx.Device().Config.ComputeUnits * eng.jerkGroupForTest()
	n := 2 * threshold
	s := ic.Plummer(n, 9)
	jerk := make([]vec.V3, n)

	full := make([]int, n)
	for i := range full {
		full[i] = i
	}
	evalsBefore := eng.Evaluations
	if _, err := eng.AccelJerk(context.Background(), s, full, jerk); err != nil {
		t.Fatalf("AccelJerk(full): %v", err)
	}
	small := full[:threshold/4]
	if _, err := eng.AccelJerk(context.Background(), s, small, jerk); err != nil {
		t.Fatalf("AccelJerk(small): %v", err)
	}

	if got := o.Counter("core.jerk.plan.i-parallel").Value(); got != 1 {
		t.Errorf("i-parallel selections = %d, want 1", got)
	}
	if got := o.Counter("core.jerk.plan.j-parallel").Value(); got != 1 {
		t.Errorf("j-parallel selections = %d, want 1", got)
	}
	wantFrac := float64(len(small)) / float64(n)
	if got := o.Gauge("core.jerk.active_fraction").Value(); got != wantFrac {
		t.Errorf("active_fraction gauge = %g, want %g", got, wantFrac)
	}
	if eng.Evaluations != evalsBefore+2 {
		t.Errorf("Evaluations = %d, want %d", eng.Evaluations, evalsBefore+2)
	}
	if eng.KernelSeconds <= 0 || eng.Flops <= 0 {
		t.Errorf("jerk path did not accrue on engine accounting: kernel %g flops %d",
			eng.KernelSeconds, eng.Flops)
	}

	// A cancelled context fails before any work is enqueued.
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.AccelJerk(cctx, s, full, jerk); err == nil {
		t.Error("AccelJerk with cancelled context succeeded")
	}
}

// TestEngineSupportsJerkOnlyPP pins the capability boundary: treecode plans
// have no exact jerk, so the engine must refuse the path.
func TestEngineSupportsJerkOnlyPP(t *testing.T) {
	ctx := newTestContext(t)
	bhEng := NewEngine(planOn[*JWParallel](t, ctx, "jw-parallel"))
	if bhEng.SupportsJerk() {
		t.Error("BH engine claims jerk support")
	}
	s := ic.Plummer(32, 1)
	jerk := make([]vec.V3, 32)
	if _, err := bhEng.AccelJerk(context.Background(), s, []int{0}, jerk); err == nil {
		t.Error("AccelJerk on BH plan succeeded")
	}

	ppEng := NewEngine(planOn[*JParallel](t, ctx, "j-parallel"))
	if !ppEng.SupportsJerk() {
		t.Error("j-parallel engine denies jerk support")
	}
}

// jerkGroupForTest exposes the unit's i-parallel group size for threshold
// computation in tests (building the unit lazily like AccelJerk does).
func (e *Engine) jerkGroupForTest() int {
	p := e.Plan.(jerkCapablePlan)
	if e.jerk == nil {
		e.jerk = newJerkUnit(p.clContext(), p.ppParams())
		e.jerk.setObs(e.obs)
	}
	return e.jerk.iGroup
}

// TestJerkKernelsBitwiseGolden pins both jerk kernels bit for bit on the
// HD 5850 model, one active set on each side of selectPlan's crossover
// (activeN >= ComputeUnits x iGroup = 4608): every body of Plummer(4608, 42)
// runs i-parallel, and so does every body of Plummer(4700, 42), whose active
// block pads to 4864 lanes; every 8th body of Plummer(1024, 42) runs
// j-parallel. Each row holds FNV-1a 64 over the little-endian float32 bits
// of each active body's acceleration then jerk, in active order, and the
// modelled kernel seconds. The i-parallel kernel also matches pp.ScalarJerk
// bit for bit; j-parallel does not, because its strided partial sums and
// tree reduction change the summation order.
func TestJerkKernelsBitwiseGolden(t *testing.T) {
	const (
		uploads   = "upload write jerk.posm, upload write jerk.vel, upload write jerk.active, "
		downloads = ", download read jerk.acc, download read jerk.jerk"
		iCmds     = uploads + "kernel jerk.i-parallel" + downloads
		jCmds     = uploads + "kernel jerk.j-parallel" + downloads
	)
	golden := []struct {
		plan          string
		n, stride     int
		hash          uint64
		kernelSeconds float64
		cmds          string
	}{
		{"i-parallel", 4608, 1, 0xb17bc3f04321c93f, 0.0010279406896551724, iCmds},
		{"i-parallel", 4700, 1, 0xe8f835e50cc29d0e, 0.0021600510344827583, iCmds},
		{"j-parallel", 1024, 8, 0x40fd605493335781, 4.7110068965517238e-05, jCmds},
	}
	params := pp.DefaultParams()
	for _, g := range golden {
		ctx, err := cl.NewContext(gpusim.HD5850())
		if err != nil {
			t.Fatal(err)
		}
		u := newJerkUnit(ctx, params)
		var active []int
		for i := 0; i < g.n; i += g.stride {
			active = append(active, i)
		}
		if got := u.selectPlan(len(active)); got != g.plan {
			t.Fatalf("n=%d stride %d: selectPlan = %q, want %q", g.n, g.stride, got, g.plan)
		}
		s := ic.Plummer(g.n, 42)
		jerk := make([]vec.V3, g.n)
		prof, err := u.eval(s, active, jerk)
		if err != nil {
			t.Fatal(err)
		}

		const offset64, prime64 = 0xcbf29ce484222325, 0x1099511628211
		h := uint64(offset64)
		for _, i := range active {
			for _, v := range [2]vec.V3{s.Acc[i], jerk[i]} {
				for _, f := range [3]float32{v.X, v.Y, v.Z} {
					bits := math.Float32bits(f)
					for sh := 0; sh < 32; sh += 8 {
						h ^= uint64(byte(bits >> sh))
						h *= prime64
					}
				}
			}
		}
		if h != g.hash {
			t.Errorf("%s n=%d: acc+jerk hash %#016x, want %#016x", g.plan, g.n, h, g.hash)
		}
		if got := prof.Profile.KernelSeconds; math.Abs(got-g.kernelSeconds) > 1e-12*g.kernelSeconds {
			t.Errorf("%s n=%d: KernelSeconds %.17g, want %.17g", g.plan, g.n, got, g.kernelSeconds)
		}
		checkCommands(t, fmt.Sprintf("jerk %s n=%d", g.plan, g.n), prof.Schedule, g.cmds)

		if g.plan != "i-parallel" {
			continue
		}
		ref := ic.Plummer(g.n, 42)
		refJerk := make([]vec.V3, g.n)
		pp.ScalarJerk(ref, active, refJerk, params)
		for _, i := range active {
			if s.Acc[i] != ref.Acc[i] || jerk[i] != refJerk[i] {
				t.Fatalf("i-parallel body %d: acc %v jerk %v, pp.ScalarJerk acc %v jerk %v",
					i, s.Acc[i], jerk[i], ref.Acc[i], refJerk[i])
			}
		}
	}
}
