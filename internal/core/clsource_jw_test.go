package core

import (
	"testing"

	"repro/internal/bh"
	"repro/internal/cl"
	"repro/internal/ic"
)

// TestJWParallelCLMatchesGoPlanBitwise runs the paper's jw-parallel kernel
// from OpenCL C source over the exact host data (tree, walks, queues) the
// Go plan builds, and demands bitwise-identical accelerations.
func TestJWParallelCLMatchesGoPlanBitwise(t *testing.T) {
	const n = 1024
	opt := bh.DefaultOptions()
	sys := ic.Plummer(n, 31)

	// Go plan result.
	ctxGo := newHD5850Context(t)
	goPlan := planOn[*JWParallel](t, ctxGo, "jw-parallel", WithBHOptions(opt))
	goSys := sys.Clone()
	if _, err := goPlan.Accel(goSys); err != nil {
		t.Fatal(err)
	}

	// Host pipeline, shared with the Go plan.
	d := hostData(t, sys.Clone(), opt, goPlan.GroupCap, goPlan.LocalSize)
	numQueues := queueCount(ctxGo.Device().Config, goPlan.QueueTarget, d.numWalks)
	var queues lpt
	queueWalks, queueDesc := queues.balance(d, nil, numQueues)

	// OpenCL C kernel through the host API.
	ctx := newHD5850Context(t)
	prog, err := ctx.CreateProgram(JWParallelCL)
	if err != nil {
		t.Fatalf("CreateProgram: %v", err)
	}
	kern, err := prog.CreateKernel("jwparallel")
	if err != nil {
		t.Fatal(err)
	}
	dev := ctx.Device()
	bufSrc := dev.NewBufferF32("src", len(d.srcF4))
	bufPos := dev.NewBufferF32("posm", len(d.posmSorted))
	bufLists := dev.NewBufferI32("lists", len(d.lists))
	bufDesc := dev.NewBufferI32("desc", len(d.desc))
	bufQW := dev.NewBufferI32("qwalks", len(queueWalks))
	bufQD := dev.NewBufferI32("qdesc", len(queueDesc))
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
	if _, err := q.EnqueueWriteI32(bufQW, queueWalks); err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueWriteI32(bufQD, queueDesc); err != nil {
		t.Fatal(err)
	}

	eps2 := opt.Eps * opt.Eps
	local := goPlan.LocalSize
	if err := kern.SetArgs(bufSrc, bufPos, bufLists, bufDesc, bufQW, bufQD, bufAcc,
		cl.LocalFloats(4*local), eps2, opt.G); err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueCLKernel(kern, numQueues*local, local); err != nil {
		t.Fatal(err)
	}

	// Un-permute and compare bitwise.
	clSys := sys.Clone()
	d.unpermuteAcc(clSys, bufAcc.HostF32())
	for i := range clSys.Acc {
		if clSys.Acc[i] != goSys.Acc[i] {
			t.Fatalf("body %d: CL %v != Go %v", i, clSys.Acc[i], goSys.Acc[i])
		}
	}
}
