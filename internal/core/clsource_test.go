package core

import (
	"testing"

	"repro/internal/cl"
	"repro/internal/gpusim"
	"repro/internal/ic"
	"repro/internal/pp"
)

// TestIParallelCLMatchesGoPlanBitwise runs the paper's i-parallel kernel
// from its OpenCL C source through the clc compiler and demands bitwise
// agreement with the Go implementation of the same plan: both execute the
// identical float32 operation sequence, so any difference is a compiler or
// plan bug.
func TestIParallelCLMatchesGoPlanBitwise(t *testing.T) {
	const n = 512
	sys := ic.Plummer(n, 21)
	params := pp.DefaultParams()

	// Go plan.
	ctxGo := newHD5850Context(t)
	goPlan := planOn[*IParallel](t, ctxGo, "i-parallel", WithPPParams(params))
	goSys := sys.Clone()
	if _, err := goPlan.Accel(goSys); err != nil {
		t.Fatal(err)
	}

	// OpenCL C plan, by hand through the cl host API.
	ctx := newHD5850Context(t)
	prog, err := ctx.CreateProgram(IParallelCL)
	if err != nil {
		t.Fatalf("CreateProgram: %v", err)
	}
	kern, err := prog.CreateKernel("iparallel")
	if err != nil {
		t.Fatal(err)
	}

	local := goPlan.GroupSize
	nPad := roundUp(n, local)
	dev := ctx.Device()
	posm := dev.NewBufferF32("posm", 4*nPad)
	acc := dev.NewBufferF32("acc", 4*nPad)
	host := flattenPadded(sys, nPad, nil)
	q := ctx.NewQueue()
	if _, err := q.EnqueueWriteF32(posm, host); err != nil {
		t.Fatal(err)
	}
	eps2 := params.Eps * params.Eps
	if err := kern.SetArgs(posm, acc, cl.LocalFloats(4*local), nPad, eps2, params.G); err != nil {
		t.Fatal(err)
	}
	ev, err := q.EnqueueCLKernel(kern, nPad, local)
	if err != nil {
		t.Fatal(err)
	}

	out := acc.HostF32()
	for i := 0; i < n; i++ {
		got := [3]float32{out[4*i], out[4*i+1], out[4*i+2]}
		want := [3]float32{goSys.Acc[i].X, goSys.Acc[i].Y, goSys.Acc[i].Z}
		if got != want {
			t.Fatalf("body %d: CL %v != Go %v", i, got, want)
		}
	}

	// The interpreter counts executed flops organically (about 20 float
	// ops per interaction with the sqrt charge) — the launch must report
	// work of that order.
	perInteraction := float64(ev.Result.TotalFlops()) / float64(nPad) / float64(nPad)
	if perInteraction < 14 || perInteraction > 26 {
		t.Errorf("counted %.1f flops/interaction, expected ~19", perInteraction)
	}
}

// TestJParallelCLMatchesReference validates the chamomile kernel's OpenCL C
// source against the scalar CPU sum (the reduction order differs from the
// Go plan, so the comparison is tolerance-based).
func TestJParallelCLMatchesReference(t *testing.T) {
	const n = 300
	sys := ic.Plummer(n, 22)
	params := pp.DefaultParams()
	ref := sys.Clone()
	pp.Scalar(ref, params)

	ctx := newHD5850Context(t)
	prog, err := ctx.CreateProgram(JParallelCL)
	if err != nil {
		t.Fatal(err)
	}
	kern, err := prog.CreateKernel("jparallel")
	if err != nil {
		t.Fatal(err)
	}
	const local = 64
	nPadJ := roundUp(n, local)
	dev := ctx.Device()
	posm := dev.NewBufferF32("posm", 4*nPadJ)
	acc := dev.NewBufferF32("acc", 4*n)
	host := flattenPadded(sys, nPadJ, nil)
	q := ctx.NewQueue()
	if _, err := q.EnqueueWriteF32(posm, host); err != nil {
		t.Fatal(err)
	}
	eps2 := params.Eps * params.Eps
	if err := kern.SetArgs(posm, acc, cl.LocalFloats(3*local), nPadJ, eps2, params.G); err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueCLKernel(kern, n*local, local); err != nil {
		t.Fatal(err)
	}

	out := acc.HostF32()
	sys.UnflattenAcc(out)
	if e := pp.MaxRelError(ref.Acc, sys.Acc, 1e-3); e > 2e-4 {
		t.Errorf("max rel error %g vs scalar reference", e)
	}
}

// TestProgramAPI exercises the host-API surface.
func TestProgramAPI(t *testing.T) {
	ctx, err := cl.NewContext(gpusim.HD5850())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.CreateProgram("not a program"); err == nil {
		t.Error("garbage source accepted")
	}
	prog, err := ctx.CreateProgram(IParallelCL)
	if err != nil {
		t.Fatal(err)
	}
	names := prog.KernelNames()
	if len(names) != 1 || names[0] != "iparallel" {
		t.Errorf("KernelNames = %v", names)
	}
	if _, err := prog.CreateKernel("nope"); err == nil {
		t.Error("missing kernel accepted")
	}
	k, err := prog.CreateKernel("iparallel")
	if err != nil {
		t.Fatal(err)
	}
	if err := k.SetArgs(struct{}{}); err == nil {
		t.Error("bad argument type accepted")
	}
}

// TestIParallelFloat4CLMatchesFlatKernel runs the authentic GPU Gems float4
// form of the i-parallel kernel and demands bitwise agreement with the
// flat-float source kernel (identical operation order).
func TestIParallelFloat4CLMatchesFlatKernel(t *testing.T) {
	const n = 512
	sys := ic.Plummer(n, 61)
	params := pp.DefaultParams()

	run := func(src, name string) []float32 {
		ctx := newHD5850Context(t)
		prog, err := ctx.CreateProgram(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		kern, err := prog.CreateKernel(name)
		if err != nil {
			t.Fatal(err)
		}
		const local = 64
		nPad := roundUp(n, local)
		dev := ctx.Device()
		posm := dev.NewBufferF32("posm", 4*nPad)
		acc := dev.NewBufferF32("acc", 4*nPad)
		q := ctx.NewQueue()
		if _, err := q.EnqueueWriteF32(posm, flattenPadded(sys, nPad, nil)); err != nil {
			t.Fatal(err)
		}
		eps2 := params.Eps * params.Eps
		if err := kern.SetArgs(posm, acc, cl.LocalFloats(4*local), nPad, eps2, params.G); err != nil {
			t.Fatal(err)
		}
		if _, err := q.EnqueueCLKernel(kern, nPad, local); err != nil {
			t.Fatal(err)
		}
		return append([]float32(nil), acc.HostF32()...)
	}

	flat := run(IParallelCL, "iparallel")
	vec := run(IParallelFloat4CL, "iparallel4")
	for i := 0; i < 4*n; i++ {
		if i%4 == 3 {
			continue // pad component differs (flat writes 0, float4 writes 0 after scale)
		}
		if flat[i] != vec[i] {
			t.Fatalf("component %d: flat %g != float4 %g", i, flat[i], vec[i])
		}
	}
}
