package cl

import (
	"fmt"
	"strings"

	"repro/internal/clc"
	"repro/internal/clc/analysis"
	"repro/internal/gpusim"
)

// CheckMode selects how kernel static-analysis findings gate a build.
type CheckMode int

// Check modes. CheckStrict is the zero value: plain CreateProgram rejects
// programs with unsuppressed error-severity findings (localrace,
// barrierdiverge) — the OpenCL build step is the last point where a racy
// kernel is cheap to stop.
const (
	// CheckStrict fails the build on unsuppressed error-severity findings.
	CheckStrict CheckMode = iota
	// CheckWarn runs the analyzers but never fails the build; findings are
	// only counted in the context's clc.lint.* metrics.
	CheckWarn
	// CheckOff skips analysis entirely (the escape hatch).
	CheckOff
)

// BuildOptions tune CreateProgramWithOptions.
type BuildOptions struct {
	// KernelCheck gates the build on the internal/clc/analysis rule set.
	KernelCheck CheckMode
	// Checked enables the checked interpreter mode for every kernel of the
	// program: __local accesses are logged against a shadow store and the
	// launch traps on cross-work-item races and divergent barrier counts.
	Checked bool
}

// Program is a compiled OpenCL C program (see internal/clc for the
// supported subset), the analogue of clCreateProgramWithSource +
// clBuildProgram.
type Program struct {
	ctx  *Context
	prog *clc.Program
	opts BuildOptions
}

// CreateProgram compiles OpenCL C source under the default build options:
// strict kernel checking, normal interpreter.
func (c *Context) CreateProgram(source string) (*Program, error) {
	return c.CreateProgramWithOptions(source, BuildOptions{})
}

// CreateProgramWithOptions compiles OpenCL C source. Unless KernelCheck is
// CheckOff, the static analyzers run over every kernel; in CheckStrict mode
// unsuppressed error-severity findings fail the build.
func (c *Context) CreateProgramWithOptions(source string, opts BuildOptions) (*Program, error) {
	prog, err := clc.Parse(source)
	if err != nil {
		return nil, err
	}
	p := &Program{ctx: c, prog: prog, opts: opts}
	if opts.KernelCheck != CheckOff {
		lint := analysis.AnalyzeProgram(prog, source)
		c.observeLint(lint)
		if opts.KernelCheck == CheckStrict {
			if errs := lint.Errors(); len(errs) > 0 {
				lines := make([]string, len(errs))
				for i, d := range errs {
					lines[i] = "  " + d.String()
				}
				return nil, fmt.Errorf("cl: kernel check failed (%d error(s); fix, suppress with kernelcheck:allow, or build with CheckWarn/CheckOff):\n%s",
					len(errs), strings.Join(lines, "\n"))
			}
		}
	}
	return p, nil
}

// KernelNames lists the __kernel entry points in source order.
func (p *Program) KernelNames() []string {
	var names []string
	for _, fn := range p.prog.Kernels() {
		names = append(names, fn.Name)
	}
	return names
}

// CLKernel is a kernel entry point with bound arguments, the analogue of
// clCreateKernel + clSetKernelArg.
type CLKernel struct {
	prog *Program
	name string
	args []clc.Arg
}

// CreateKernel resolves a kernel by name.
func (p *Program) CreateKernel(name string) (*CLKernel, error) {
	found := false
	for _, fn := range p.prog.Kernels() {
		if fn.Name == name {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("cl: no kernel %q in program", name)
	}
	return &CLKernel{prog: p, name: name}, nil
}

// LocalFloats reserves n float32 slots of group-local memory for a __local
// float* parameter.
type LocalFloats int

// SetArgs binds the kernel's arguments in positional order. Accepted types:
// *gpusim.Buffer, int/int32, float32/float64, LocalFloats. The bound list is
// validated eagerly against the kernel's declared signature — arity and type
// mismatches fail here, at the clSetKernelArg analogue, not at launch.
func (k *CLKernel) SetArgs(args ...any) error {
	bound := make([]clc.Arg, 0, len(args))
	for i, a := range args {
		switch v := a.(type) {
		case *gpusim.Buffer:
			bound = append(bound, clc.BufArg(v))
		case int:
			bound = append(bound, clc.IntArg(int32(v)))
		case int32:
			bound = append(bound, clc.IntArg(v))
		case float32:
			bound = append(bound, clc.FloatArg(v))
		case float64:
			bound = append(bound, clc.FloatArg(float32(v)))
		case LocalFloats:
			bound = append(bound, clc.LocalArg(int(v)))
		default:
			return fmt.Errorf("cl: kernel %q arg %d: unsupported type %T", k.name, i, a)
		}
	}
	if err := clc.CheckArgs(k.prog.prog, k.name, bound); err != nil {
		return err
	}
	k.args = bound
	return nil
}

// EnqueueCLKernel launches a compiled OpenCL C kernel over a 1-D NDRange,
// recording a profiled kernel event like EnqueueNDRange. Programs built
// with BuildOptions.Checked run under the checked interpreter.
func (q *Queue) EnqueueCLKernel(k *CLKernel, global, local int) (*Event, error) {
	bindFn := clc.Bind
	if k.prog.opts.Checked {
		bindFn = clc.BindChecked
	}
	fn, ldsFloats, err := bindFn(k.prog.prog, k.name, k.args)
	if err != nil {
		return nil, err
	}
	return q.EnqueueNDRange("clc:"+k.name, fn, gpusim.LaunchParams{
		Global:    global,
		Local:     local,
		LDSFloats: ldsFloats,
	})
}
