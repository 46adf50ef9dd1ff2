package core

import (
	"strings"
	"testing"

	"repro/internal/bh"
	"repro/internal/cl"
	"repro/internal/gpusim"
	"repro/internal/ic"
	"repro/internal/pp"
)

func TestCLPlanPPMatchesGoPlans(t *testing.T) {
	params := pp.DefaultParams()
	sys := ic.Plummer(512, 41)

	for _, variant := range []string{"iparallel", "jparallel"} {
		ctx := newHD5850Context(t)
		clPlan, err := newCLPlanPP(ctx, params, variant)
		if err != nil {
			t.Fatalf("%s: %v", variant, err)
		}
		if clPlan.Kind() != KindPP || !strings.Contains(clPlan.Name(), variant) {
			t.Errorf("%s: identity wrong: %s %v", variant, clPlan.Name(), clPlan.Kind())
		}
		got := sys.Clone()
		prof, err := clPlan.Accel(got)
		if err != nil {
			t.Fatalf("%s: %v", variant, err)
		}
		if prof.Interactions < 512*512 {
			t.Errorf("%s: interactions %d", variant, prof.Interactions)
		}
		if prof.Profile.KernelSeconds <= 0 {
			t.Errorf("%s: no kernel time", variant)
		}
		// The source plan's commands are the upload, the compiled kernel
		// and the download.
		checkCommands(t, variant, prof.Schedule,
			"upload write "+variant+".posm, kernel clc:"+variant+", download read "+variant+".acc")

		var ref Plan
		ctx2 := newHD5850Context(t)
		if variant == "iparallel" {
			ref = planOn[*IParallel](t, ctx2, "i-parallel", WithPPParams(params))
		} else {
			ref = planOn[*JParallel](t, ctx2, "j-parallel", WithPPParams(params))
		}
		want := sys.Clone()
		if _, err := ref.Accel(want); err != nil {
			t.Fatal(err)
		}
		for i := range want.Acc {
			if want.Acc[i] != got.Acc[i] {
				t.Fatalf("%s: body %d: CL %v != Go %v", variant, i, got.Acc[i], want.Acc[i])
			}
		}
	}
}

func TestCLPlanReusesBuffers(t *testing.T) {
	ctx := newHD5850Context(t)
	plan, err := newCLPlanPP(ctx, pp.DefaultParams(), "iparallel")
	if err != nil {
		t.Fatal(err)
	}
	sys := ic.Plummer(256, 1)
	if _, err := plan.Accel(sys); err != nil {
		t.Fatal(err)
	}
	before := [2]*gpusim.Buffer{plan.bufPosM, plan.bufAcc}
	if _, err := plan.Accel(sys); err != nil {
		t.Fatal(err)
	}
	if after := [2]*gpusim.Buffer{plan.bufPosM, plan.bufAcc}; after != before {
		t.Error("the plan reallocated its device buffers")
	}
}

func TestCLPlanValidation(t *testing.T) {
	ctx := newHD5850Context(t)
	if _, err := newCLPlanPP(ctx, pp.DefaultParams(), "nosuch"); err == nil {
		t.Error("unknown variant accepted")
	}
	plan, err := newCLPlanPP(ctx, pp.DefaultParams(), "iparallel")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Accel(ic.Plummer(0, 1)); err == nil {
		t.Error("empty system accepted")
	}
}

// TestWParallelCLMatchesGoPlanBitwise completes the source-kernel set: the
// w-parallel kernel from OpenCL C over the Go plan's host data.
func TestWParallelCLMatchesGoPlanBitwise(t *testing.T) {
	const n = 1024
	opt := bh.DefaultOptions()
	sys := ic.Plummer(n, 51)

	ctxGo := newHD5850Context(t)
	goPlan := planOn[*WParallel](t, ctxGo, "w-parallel", WithBHOptions(opt))
	goSys := sys.Clone()
	if _, err := goPlan.Accel(goSys); err != nil {
		t.Fatal(err)
	}

	d := hostData(t, sys.Clone(), opt, goPlan.GroupCap, goPlan.LocalSize)

	ctx := newHD5850Context(t)
	prog, err := ctx.CreateProgram(WParallelCL)
	if err != nil {
		t.Fatal(err)
	}
	kern, err := prog.CreateKernel("wparallel")
	if err != nil {
		t.Fatal(err)
	}
	dev := ctx.Device()
	bufSrc := dev.NewBufferF32("src", len(d.srcF4))
	bufPos := dev.NewBufferF32("posm", len(d.posmSorted))
	bufLists := dev.NewBufferI32("lists", len(d.lists))
	bufDesc := dev.NewBufferI32("desc", len(d.desc))
	bufAcc := dev.NewBufferF32("acc", 4*n)
	q := ctx.NewQueue()
	if _, err := q.EnqueueWriteF32(bufSrc, d.srcF4); err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueWriteF32(bufPos, d.posmSorted); err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueWriteI32(bufLists, d.lists); err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueWriteI32(bufDesc, d.desc); err != nil {
		t.Fatal(err)
	}
	eps2 := opt.Eps * opt.Eps
	if err := kern.SetArgs(bufSrc, bufPos, bufLists, bufDesc, bufAcc, eps2, opt.G); err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueCLKernel(kern, d.numWalks*goPlan.LocalSize, goPlan.LocalSize); err != nil {
		t.Fatal(err)
	}

	clSys := sys.Clone()
	d.unpermuteAcc(clSys, bufAcc.HostF32())
	for i := range clSys.Acc {
		if clSys.Acc[i] != goSys.Acc[i] {
			t.Fatalf("body %d: CL %v != Go %v", i, clSys.Acc[i], goSys.Acc[i])
		}
	}
}

var _ Plan = (*CLPlanPP)(nil)
var _ = cl.LocalFloats(0)
