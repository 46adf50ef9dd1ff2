// Clkernels: run the paper's kernels from their OpenCL C *source* — the
// form the paper's artifact would ship — through this repository's OpenCL C
// subset compiler (internal/clc), and cross-check against the Go plan
// implementation and the exact CPU sum.
//
// Run with: go run ./examples/clkernels
package main

import (
	"fmt"
	"log"

	"repro/internal/cl"
	"repro/internal/core"
	"repro/internal/gpusim"
	"repro/internal/ic"
	"repro/internal/pp"
)

func main() {
	const n = 1024
	sys := ic.Plummer(n, 5)
	params := pp.DefaultParams()

	// --- Compile and launch the i-parallel kernel from OpenCL C source ---
	ctx, err := cl.NewContext(gpusim.HD5850())
	if err != nil {
		log.Fatal(err)
	}
	prog, err := ctx.CreateProgram(core.IParallelCL)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled OpenCL C program; kernels: %v\n", prog.KernelNames())

	kern, err := prog.CreateKernel("iparallel")
	if err != nil {
		log.Fatal(err)
	}
	const local = 256
	dev := ctx.Device()
	posm := dev.NewBufferF32("posm", 4*n)
	acc := dev.NewBufferF32("acc", 4*n)
	q := ctx.NewQueue()
	if _, err := q.EnqueueWriteF32(posm, sys.FlattenPos(nil)); err != nil {
		log.Fatal(err)
	}
	eps2 := params.Eps * params.Eps
	if err := kern.SetArgs(posm, acc, cl.LocalFloats(4*local), n, eps2, params.G); err != nil {
		log.Fatal(err)
	}
	ev, err := q.EnqueueCLKernel(kern, n, local)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("iparallel from source: %.0f executed flops, modelled %.3f ms on %s\n",
		float64(ev.Result.TotalFlops()), ev.Seconds()*1e3, dev.Config.Name)

	// --- Validate against the CPU direct sum ---
	clSys := sys.Clone()
	clSys.UnflattenAcc(acc.HostF32())
	ref := sys.Clone()
	pp.Scalar(ref, params)
	fmt.Printf("max relative error vs CPU direct sum: %.2e\n",
		pp.MaxRelError(ref.Acc, clSys.Acc, 1e-3))
}
