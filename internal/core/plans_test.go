package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/bh"
	"repro/internal/body"
	"repro/internal/cl"
	"repro/internal/gpusim"
	"repro/internal/ic"
	"repro/internal/pipeline"
	"repro/internal/pp"
)

func newHD5850Context(t testing.TB) *cl.Context {
	t.Helper()
	ctx, err := cl.NewContext(gpusim.HD5850())
	if err != nil {
		t.Fatalf("NewContext: %v", err)
	}
	return ctx
}

// planOn builds the named plan on ctx through NewPlanByName.
func planOn[P Plan](t testing.TB, ctx *cl.Context, name string, opts ...PlanOption) P {
	t.Helper()
	p, err := NewPlanByName(name, append(opts, WithCLContext(ctx))...)
	if err != nil {
		t.Fatalf("NewPlanByName(%q): %v", name, err)
	}
	return p.(P)
}

// hostData runs the BH plans' host pipeline over s into a fresh bhHostData.
func hostData(t testing.TB, s *body.System, opt bh.Options, groupCap, maxBodies int) *bhHostData {
	t.Helper()
	d := &bhHostData{}
	if err := d.build(s, opt, groupCap, maxBodies); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestPPPlansMatchScalar validates the PP plans' accelerations against the
// scalar CPU reference.
func TestPPPlansMatchScalar(t *testing.T) {
	params := pp.DefaultParams()
	for _, n := range []int{1, 7, 64, 100, 256, 1000} {
		sys := ic.Plummer(n, 42)
		want := sys.Clone()
		pp.Scalar(want, params)

		ctx := newHD5850Context(t)
		for _, plan := range []Plan{
			planOn[*IParallel](t, ctx, "i-parallel", WithPPParams(params)),
			planOn[*JParallel](t, ctx, "j-parallel", WithPPParams(params)),
		} {
			got := sys.Clone()
			prof, err := plan.Accel(got)
			if err != nil {
				t.Fatalf("n=%d %s: %v", n, plan.Name(), err)
			}
			if prof.N != n {
				t.Errorf("n=%d %s: profile N = %d", n, plan.Name(), prof.N)
			}
			if prof.Interactions < int64(n)*int64(n) {
				t.Errorf("n=%d %s: interactions %d < n^2", n, plan.Name(), prof.Interactions)
			}
			if e := pp.MaxRelError(want.Acc, got.Acc, 1e-3); e > 2e-4 {
				t.Errorf("n=%d %s: max rel acceleration error %g", n, plan.Name(), e)
			}
		}
	}
}

// TestBHPlansMatchWalkEval validates the BH plans against the CPU
// evaluation of their own walk lists (identical arithmetic) and against the
// direct sum (within treecode accuracy).
func TestBHPlansMatchWalkEval(t *testing.T) {
	opt := bh.DefaultOptions()
	for _, n := range []int{64, 333, 1024, 4096} {
		sys := ic.Plummer(n, 7)

		direct := sys.Clone()
		pp.Scalar(direct, pp.Params{G: opt.G, Eps: opt.Eps})

		ctx := newHD5850Context(t)
		w := planOn[*WParallel](t, ctx, "w-parallel", WithBHOptions(opt))
		jw := planOn[*JWParallel](t, ctx, "jw-parallel", WithBHOptions(opt))
		for _, pc := range []struct {
			plan     Plan
			groupCap int
		}{{w, w.GroupCap}, {jw, jw.GroupCap}} {
			plan := pc.plan
			got := sys.Clone()
			prof, err := plan.Accel(got)
			if err != nil {
				t.Fatalf("n=%d %s: %v", n, plan.Name(), err)
			}

			// Exact-arithmetic reference: CPU evaluation of the same walks,
			// built with the plan's group cap, must agree bit for bit.
			o := opt
			if o.LeafCap > pc.groupCap {
				o.LeafCap = pc.groupCap
			}
			cpu := sys.Clone()
			tree, err := bh.Build(cpu, o)
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			ws, err := tree.BuildWalks(pc.groupCap)
			if err != nil {
				t.Fatalf("BuildWalks: %v", err)
			}
			ws.Eval()
			for i := range cpu.Acc {
				if cpu.Acc[i] != got.Acc[i] {
					t.Fatalf("n=%d %s: body %d: cpu walk eval %v != gpu %v", n, plan.Name(), i, cpu.Acc[i], got.Acc[i])
				}
			}

			// Accuracy against direct sum: bounded by theta.
			if e := pp.RMSRelError(direct.Acc, got.Acc, 1e-3); e > 0.05 {
				t.Errorf("n=%d %s: RMS rel error vs direct sum %g", n, plan.Name(), e)
			}
			if prof.Interactions <= 0 {
				t.Errorf("n=%d %s: no interactions recorded", n, plan.Name())
			}
			if prof.Interactions >= int64(n)*int64(n) && n >= 1024 {
				t.Errorf("n=%d %s: interactions %d not sub-quadratic", n, plan.Name(), prof.Interactions)
			}
		}
	}
}

// TestBHPlanExactVsWalkEval checks bitwise agreement between the jw kernel
// and the CPU walk evaluation when both consume identical lists.
func TestBHPlanExactVsWalkEval(t *testing.T) {
	opt := bh.DefaultOptions()
	n := 2048
	sys := ic.Plummer(n, 99)

	ctx := newHD5850Context(t)
	plan := planOn[*JWParallel](t, ctx, "jw-parallel", WithBHOptions(opt))
	gpu := sys.Clone()
	if _, err := plan.Accel(gpu); err != nil {
		t.Fatalf("jw Accel: %v", err)
	}

	// Rebuild the same walks on the CPU (same options as the plan uses).
	o := opt
	if o.LeafCap > plan.GroupCap {
		o.LeafCap = plan.GroupCap
	}
	cpu := sys.Clone()
	tree, err := bh.Build(cpu, o)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	ws, err := tree.BuildWalks(plan.GroupCap)
	if err != nil {
		t.Fatalf("BuildWalks: %v", err)
	}
	ws.Eval()

	for i := range cpu.Acc {
		if cpu.Acc[i] != gpu.Acc[i] {
			t.Fatalf("body %d: cpu walk eval %v != gpu jw %v", i, cpu.Acc[i], gpu.Acc[i])
		}
	}
}

// TestJWQueueingCoversAllBodies stresses the queue balancing with odd sizes.
func TestJWQueueingCoversAllBodies(t *testing.T) {
	opt := bh.DefaultOptions()
	for _, n := range []int{65, 129, 1023, 2047} {
		sys := ic.UniformCube(n, 2.0, uint64(n))
		ctx := newHD5850Context(t)
		plan := planOn[*JWParallel](t, ctx, "jw-parallel", WithBHOptions(opt))
		plan.QueueTarget = 5 // force long queues
		got := sys.Clone()
		if _, err := plan.Accel(got); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		direct := sys.Clone()
		pp.Scalar(direct, pp.Params{G: opt.G, Eps: opt.Eps})
		if e := pp.RMSRelError(direct.Acc, got.Acc, 1e-3); e > 0.05 {
			t.Errorf("n=%d: RMS rel error %g", n, e)
		}
	}
}

// checkCommands requires the schedule to hold one span per queue command,
// in the order want lists them as "<kind> <event name>", each span starting
// where the previous one ended and the first at zero.
func checkCommands(t *testing.T, label string, sched *pipeline.Schedule, want string) {
	t.Helper()
	var cmds []string
	end := 0.0
	for i, sp := range sched.Spans {
		cmds = append(cmds, sp.Kind.String()+" "+sp.Event.Name)
		if sp.Start != end {
			t.Errorf("%s: span %d (%s) starts at %.17g, previous span ends at %.17g",
				label, i, sp.Event.Name, sp.Start, end)
		}
		end = sp.End
	}
	if got := strings.Join(cmds, ", "); got != want {
		t.Errorf("%s: commands\n  %s\nwant\n  %s", label, got, want)
	}
}

// TestPlansBitwiseGolden locks every plan's enqueue path to the
// pre-pipeline seed: for every plan, the accelerations must be
// byte-identical (FNV-1a 64 over the little-endian float32 bits of Acc in
// body order) and the modelled kernel/transfer seconds must match the values
// captured from the monolithic Accel implementations on an HD5850 with
// ic.Plummer(n, 42). Any change to enqueue order, kernel arithmetic, or the
// cost model shows up here. The jw-parallel-xK rows pin the multi-device
// plan's walk sharding and per-device queueing the same way, and the
// unstaged jw-parallel rows pin the DisableLDSStaging ablation. The N 333
// rows give i-parallel padding lanes and w-parallel walks shorter than its
// work-group. Each row also pins the evaluation's commands, in order; a
// jw-parallel-xK row lists those of the device whose chain ends last.
func TestPlansBitwiseGolden(t *testing.T) {
	const (
		iCmds  = "upload write iparallel.posm, kernel iparallel.force, download read iparallel.acc"
		jCmds  = "upload write jparallel.posm, kernel jparallel.force, download read jparallel.acc"
		front  = "tree tree build, list walk/list build, "
		wCmds  = front + "upload write wparallel.src, upload write wparallel.posm, upload write wparallel.lists, upload write wparallel.desc, kernel wparallel.force, download read wparallel.acc"
		jwCmds = front + "upload write jwparallel.src, upload write jwparallel.posm, upload write jwparallel.lists, upload write jwparallel.desc, upload write jwparallel.qwalks, upload write jwparallel.qdesc, kernel jwparallel.force, download read jwparallel.acc"
		multi  = front + "upload write multijw.src, upload write multijw.posm, upload write multijw.lists, upload write multijw.desc, upload write multijw.qwalks, upload write multijw.qdesc, "
		dev0   = multi + "kernel multijw.force.dev0, download read multijw.acc"
		dev1   = multi + "kernel multijw.force.dev1, download read multijw.acc"
	)
	golden := []struct {
		plan            string
		unstaged        bool
		n               int
		accHash         uint64
		kernelSeconds   float64
		transferSeconds float64
		cmds            string
	}{
		{"i-parallel", false, 1024, 0xb93a7be5a8127779, 0.00015556444938820912, 3.5957818181818176e-05, iCmds},
		{"j-parallel", false, 1024, 0x88c7832efc0aec54, 0.00018178174137931054, 3.5957818181818176e-05, jCmds},
		{"w-parallel", false, 1024, 0x049641017ef77c6e, 0.0013016855431034482, 9.6629090909090788e-05, wCmds},
		{"jw-parallel", false, 1024, 0xad5478fe19182552, 0.0001231860734149054, 0.00014650181818181846, jwCmds},
		{"i-parallel", false, 4096, 0x0b15d52f29d51978, 0.00059401641824249158, 5.3831272727272705e-05, iCmds},
		{"j-parallel", false, 4096, 0x19b679bffcf1c15d, 0.0022760629655172505, 5.3831272727272813e-05, jCmds},
		{"w-parallel", false, 4096, 0x0dc94662b251ca68, 0.0044576519224137929, 0.00027896945454545293, wCmds},
		{"jw-parallel", false, 4096, 0xaa818f6a27219b31, 0.0010617280978865405, 0.00051479272727272644, jwCmds},
		{"jw-parallel-x2", false, 1024, 0xad5478fe19182552, 8.4946073414905472e-05, 0.000146456, dev0},
		{"jw-parallel-x4", false, 1024, 0xad5478fe19182552, 8.37249833147942e-05, 0.000146432, dev0},
		{"jw-parallel-x2", false, 4096, 0xaa818f6a27219b31, 0.00055552600667408227, 0.00051464654545454558, dev1},
		{"jw-parallel-x4", false, 4096, 0xaa818f6a27219b31, 0.00031470055617352618, 0.00051455272727272722, dev0},
		{"jw-parallel", true, 1024, 0xad5478fe19182552, 0.00048935244181034479, 0.00014650181818181846, jwCmds},
		{"jw-parallel", true, 4096, 0xaa818f6a27219b31, 0.0019271874698275869, 0.00051479272727272644, jwCmds},
		{"i-parallel", false, 333, 0xc695eb6ff3f41eae, 8.2489121245828701e-05, 3.29789090909091e-05, iCmds},
		{"w-parallel", false, 333, 0xf3c68e21670d3cf4, 0.0004310255431034482, 7.9650181818181806e-05, wCmds},
	}
	for _, g := range golden {
		sys := ic.Plummer(g.n, 42)
		plan, err := NewPlanByName(g.plan) // default device: the HD5850
		if err != nil {
			t.Fatal(err)
		}
		if g.unstaged {
			plan.(*JWParallel).DisableLDSStaging = true
		}
		prof, err := plan.Accel(sys)
		if err != nil {
			t.Fatalf("%s n=%d: %v", g.plan, g.n, err)
		}

		// FNV-1a 64 over the acceleration bytes, exactly as captured.
		const offset64, prime64 = 0xcbf29ce484222325, 0x1099511628211
		h := uint64(offset64)
		for _, a := range sys.Acc {
			for _, f := range [3]float32{a.X, a.Y, a.Z} {
				bits := math.Float32bits(f)
				for s := 0; s < 32; s += 8 {
					h ^= uint64(byte(bits >> s))
					h *= prime64
				}
			}
		}
		if h != g.accHash {
			t.Errorf("%s n=%d: acceleration hash %#016x, want %#016x (forces changed)",
				g.plan, g.n, h, g.accHash)
		}

		relClose := func(got, want float64) bool {
			d := got - want
			if d < 0 {
				d = -d
			}
			return d <= 1e-12*math.Abs(want)
		}
		if !relClose(prof.Profile.KernelSeconds, g.kernelSeconds) {
			t.Errorf("%s n=%d: KernelSeconds %.17g, want %.17g",
				g.plan, g.n, prof.Profile.KernelSeconds, g.kernelSeconds)
		}
		if !relClose(prof.Profile.TransferSeconds, g.transferSeconds) {
			t.Errorf("%s n=%d: TransferSeconds %.17g, want %.17g",
				g.plan, g.n, prof.Profile.TransferSeconds, g.transferSeconds)
		}
		// Every plan returns its executed schedule. Its host chain is the
		// profile's host time; its device chain is the kernel plus transfer
		// time, except on jw-parallel-xK, where it is the slowest device's
		// and so at most the maximum kernel plus the maximum transfer.
		sched := prof.Schedule
		if sched == nil || len(sched.Spans) == 0 {
			t.Fatalf("%s n=%d: no executed schedule on the profile", g.plan, g.n)
		}
		if sched.HostSeconds() != prof.Profile.HostSeconds {
			t.Errorf("%s n=%d: schedule host %.17g, profile host %.17g",
				g.plan, g.n, sched.HostSeconds(), prof.Profile.HostSeconds)
		}
		dev := prof.Profile.KernelSeconds + prof.Profile.TransferSeconds
		if _, multi := plan.(*MultiJW); multi {
			if sched.DeviceSeconds() > dev*(1+1e-12) {
				t.Errorf("%s n=%d: schedule device %.17g above kernel+transfer %.17g",
					g.plan, g.n, sched.DeviceSeconds(), dev)
			}
		} else if !relClose(sched.DeviceSeconds(), dev) {
			t.Errorf("%s n=%d: schedule device %.17g, kernel+transfer %.17g",
				g.plan, g.n, sched.DeviceSeconds(), dev)
		}
		checkCommands(t, fmt.Sprintf("%s n=%d unstaged=%v", g.plan, g.n, g.unstaged), sched, g.cmds)
	}
}

// TestAccelStopsAtFirstError requires a plan to enqueue nothing after a
// failing command and to return that command's error: a 512-lane i-parallel
// group stages an 8 KiB tile, twice the test device's local memory, so the
// launch fails after the upload and no download follows.
func TestAccelStopsAtFirstError(t *testing.T) {
	p, err := NewPlanByName("i-parallel", WithDevice(gpusim.TestDevice()), WithTuning(0, 512, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Accel(ic.Plummer(64, 1)); err == nil || !strings.Contains(err.Error(), "LDS") {
		t.Fatalf("Accel error %v, want the launch's LDS error", err)
	}
	prof := p.(*IParallel).queue.Profile()
	if prof.KernelSeconds != 0 || prof.TransferBytes != 4*4*512 {
		t.Errorf("queue ran %g s of kernels and moved %d bytes, want only the %d-byte upload",
			prof.KernelSeconds, prof.TransferBytes, 4*4*512)
	}
}

// TestLaneLoopPlanAllocsFlatInN requires a warm Accel of each lane-loop plan
// to allocate about as often at N 4096 as at N 256, and at most ceiling
// times at N 256. A lane-loop launch allocates per worker and per launch,
// never per work-group or work-item, and AllocsPerRun runs on one worker.
// The ceilings leave about a third of headroom over the counts measured
// when they were set (31, 42 and 48).
func TestLaneLoopPlanAllocsFlatInN(t *testing.T) {
	for _, c := range []struct {
		name    string
		ceiling float64
	}{{"i-parallel", 40}, {"w-parallel", 60}, {"jw-parallel", 70}} {
		name := c.name
		allocs := func(n int) float64 {
			plan, err := NewPlanByName(name)
			if err != nil {
				t.Fatal(err)
			}
			sys := ic.Plummer(n, 42)
			return testing.AllocsPerRun(3, func() {
				if _, err := plan.Accel(sys); err != nil {
					t.Fatalf("%s n=%d: %v", name, n, err)
				}
			})
		}
		small, big := allocs(256), allocs(4096)
		t.Logf("%s: %.0f allocs per warm Accel at N 256, %.0f at N 4096", name, small, big)
		if big > small+2 {
			t.Errorf("%s: %.0f allocs per warm Accel at N 4096, %.0f at N 256: allocations grow with N", name, big, small)
		}
		if small > c.ceiling {
			t.Errorf("%s: %.0f allocs per warm Accel at N 256, want at most %.0f", name, small, c.ceiling)
		}
	}
}
