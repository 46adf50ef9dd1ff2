package cl

import (
	"strings"
	"testing"

	"repro/internal/obs"
)

// racySrc stages through local memory but never barriers between the
// lane-local write and the cross-lane read: a localrace (error severity).
const racySrc = `
__kernel void stage(__global const float* src, __global float* dst,
                    __local float* tile, int n) {
    int i = get_global_id(0);
    int l = get_local_id(0);
    if (i >= n) { return; }
    tile[l] = src[i];
    dst[i] = tile[0];
}`

func TestCreateProgramRejectsRacyKernel(t *testing.T) {
	ctx := newTestContext(t)
	_, err := ctx.CreateProgram(racySrc)
	if err == nil {
		t.Fatal("strict build accepted a racy kernel")
	}
	msg := err.Error()
	if !strings.Contains(msg, "kernel check failed") || !strings.Contains(msg, "localrace") {
		t.Errorf("unhelpful build error: %v", err)
	}
	if !strings.Contains(msg, "kernelcheck:allow") {
		t.Errorf("build error should mention the suppression escape hatch: %v", err)
	}
}

func TestCheckWarnAndOffEscapeHatches(t *testing.T) {
	// findings builds racySrc under mode and returns the findings the
	// analyzers counted.
	findings := func(mode CheckMode) int64 {
		ctx := newTestContext(t)
		o := obs.New()
		ctx.SetObs(o)
		if _, err := ctx.CreateProgramWithOptions(racySrc, BuildOptions{KernelCheck: mode}); err != nil {
			t.Fatalf("mode %d failed the build: %v", mode, err)
		}
		return o.Counter("clc.lint.findings").Value()
	}
	if findings(CheckWarn) == 0 {
		t.Error("CheckWarn counted no findings")
	}
	if findings(CheckOff) != 0 {
		t.Error("CheckOff still ran the analyzers")
	}
}

func TestCheckedModeTrapsRaceAtLaunch(t *testing.T) {
	ctx := newTestContext(t)
	prog, err := ctx.CreateProgramWithOptions(racySrc,
		BuildOptions{KernelCheck: CheckOff, Checked: true})
	if err != nil {
		t.Fatal(err)
	}
	k, err := prog.CreateKernel("stage")
	if err != nil {
		t.Fatal(err)
	}
	dev := ctx.Device()
	src := dev.NewBufferF32("src", 8)
	dst := dev.NewBufferF32("dst", 8)
	if err := k.SetArgs(src, dst, LocalFloats(4), 8); err != nil {
		t.Fatal(err)
	}
	q := ctx.NewQueue()
	_, err = q.EnqueueCLKernel(k, 8, 4)
	if err == nil {
		t.Fatal("checked launch of racy kernel succeeded")
	}
	if !strings.Contains(err.Error(), "checked: localrace") {
		t.Errorf("trap %q is not a checked localrace", err)
	}
	// (No unchecked contrast launch here: the kernel's race is real at the
	// goroutine level too, and would trip `go test -race`.)
}

// hugeLocalSrc passes the strict build but declares far more __local
// memory than any device has: 2^62 floats, whose byte count overflows int.
const hugeLocalSrc = `
__kernel void huge(__global float* dst, int n) {
    __local float t[4611686018427387904];
    int i = get_global_id(0);
    int l = get_local_id(0);
    t[l] = 1.0f;
    barrier(CLK_LOCAL_MEM_FENCE);
    float v = t[l];
    if (i < n) { dst[i] = v; }
}`

func TestEnqueueRejectsHugeLocalArray(t *testing.T) {
	ctx := newTestContext(t)
	prog, err := ctx.CreateProgram(hugeLocalSrc)
	if err != nil {
		t.Fatalf("strict build rejected the kernel: %v", err)
	}
	k, err := prog.CreateKernel("huge")
	if err != nil {
		t.Fatal(err)
	}
	dst := ctx.Device().NewBufferF32("dst", 8)
	if err := k.SetArgs(dst, 8); err != nil {
		t.Fatal(err)
	}
	_, err = ctx.NewQueue().EnqueueCLKernel(k, 8, 8)
	if err == nil || !strings.Contains(err.Error(), "LDS") {
		t.Fatalf("huge __local array: err = %v, want an LDS size error", err)
	}
}

// cleanStageSrc has racySrc's signature with the missing barriers added, so
// it can actually be launched at the end of the SetArgs test.
const cleanStageSrc = `
__kernel void stage(__global const float* src, __global float* dst,
                    __local float* tile, int n) {
    int i = get_global_id(0);
    int l = get_local_id(0);
    tile[l] = src[i];
    barrier(CLK_LOCAL_MEM_FENCE);
    float v = tile[0];
    barrier(CLK_LOCAL_MEM_FENCE);
    if (i < n) { dst[i] = v; }
}`

func TestSetArgsEagerValidation(t *testing.T) {
	ctx := newTestContext(t)
	prog, err := ctx.CreateProgramWithOptions(cleanStageSrc, BuildOptions{KernelCheck: CheckWarn})
	if err != nil {
		t.Fatal(err)
	}
	k, err := prog.CreateKernel("stage")
	if err != nil {
		t.Fatal(err)
	}
	dev := ctx.Device()
	buf := dev.NewBufferF32("b", 8)

	if err := k.SetArgs(buf, buf, LocalFloats(4), 8); err != nil {
		t.Fatalf("valid args rejected: %v", err)
	}
	if err := k.SetArgs(buf, buf, LocalFloats(4)); err == nil {
		t.Error("missing arg accepted")
	}
	if err := k.SetArgs(buf, buf, LocalFloats(4), 8, 9); err == nil {
		t.Error("extra arg accepted")
	}
	if err := k.SetArgs(buf, buf, LocalFloats(4), float32(1.5)); err == nil {
		t.Error("float accepted for int parameter")
	}
	if err := k.SetArgs(buf, buf, 4, 8); err == nil {
		t.Error("int accepted for __local pointer parameter")
	}
	if err := k.SetArgs(buf, buf, LocalFloats(4), struct{}{}); err == nil {
		t.Error("unsupported Go type accepted")
	}
	// A failed SetArgs must not clobber previously bound args.
	q := ctx.NewQueue()
	if _, err := q.EnqueueCLKernel(k, 8, 4); err != nil {
		t.Errorf("launch after failed rebind: %v", err)
	}
}

func TestLintMetricsSurfaceThroughObs(t *testing.T) {
	ctx := newTestContext(t)
	o := obs.New()
	ctx.SetObs(o)
	if _, err := ctx.CreateProgramWithOptions(racySrc, BuildOptions{KernelCheck: CheckWarn}); err != nil {
		t.Fatal(err)
	}
	if v := o.Counter("clc.lint.findings").Value(); v == 0 {
		t.Error("clc.lint.findings not incremented")
	}
	if v := o.Counter("clc.lint.errors").Value(); v == 0 {
		t.Error("clc.lint.errors not incremented")
	}
}
