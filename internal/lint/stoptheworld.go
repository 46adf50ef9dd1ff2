package lint

import (
	"go/ast"
	"go/constant"
)

// stopsTheWorld lists the runtime entry points that stop the world, by
// package path and function name, each with where Go 1.24's runtime does
// it. A stop freezes every goroutine of the process: in nbodyd, the other
// engine slots and every HTTP handler, for as long as the slowest
// goroutine takes to reach a preemption point. Checked and left out:
// debug.SetGCPercent and debug.SetMemoryLimit (they take the heap lock,
// mgcpacer.go), debug.SetMaxThreads, debug.ReadGCStats, metrics.Read and
// trace.Stop, none of which stops.
var stopsTheWorld = map[[2]string]string{
	{"runtime", "ReadMemStats"}:        "stops the world to read the heap statistics (mstats.go)",
	{"runtime", "GC"}:                  "runs a whole blocking collection, with its two stops of the world (mgc.go)",
	{"runtime", "GoroutineProfile"}:    "stops the world to list the goroutines (mprof.go)",
	{"runtime", "StartTrace"}:          "stops the world to start the execution tracer (trace.go)",
	{"runtime/debug", "FreeOSMemory"}:  "runs runtime.GC, a whole blocking collection (mheap.go)",
	{"runtime/debug", "WriteHeapDump"}: "stops the world for the whole dump (heapdump.go)",
	{"runtime/trace", "Start"}:         "stops the world to start the execution tracer (runtime/trace.go)",
	{"syscall", "AllThreadsSyscall"}:   "stops the world to run the call on every thread (os_linux.go)",
	{"syscall", "AllThreadsSyscall6"}:  "stops the world to run the call on every thread (os_linux.go)",
}

// runStopTheWorld flags calls to the entry points of stopsTheWorld, and
// three whose arguments decide: runtime.GOMAXPROCS unless its argument is
// a constant <= 0 (which only reads the setting), runtime.Stack unless its
// all argument is the constant false, and pprof.Lookup("goroutine"), whose
// profile stops the world twice to be written. Test files are not loaded,
// so tests may stop the world freely.
func runStopTheWorld(c *Context) []Diagnostic {
	var out []Diagnostic
	for _, f := range c.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := c.calleeFunc(call)
			if fn == nil || fn.Pkg() == nil || !isPackageLevel(fn) {
				return true
			}
			pkg, name := fn.Pkg().Path(), fn.Name()
			// arg is the constant value of argument k, nil when it is not
			// a constant expression.
			arg := func(k int) constant.Value { return c.Pkg.Info.Types[call.Args[k]].Value }
			why, ok := stopsTheWorld[[2]string{pkg, name}]
			switch {
			case ok:
			case pkg == "runtime" && name == "GOMAXPROCS" && len(call.Args) == 1:
				if v := arg(0); v == nil || v.Kind() != constant.Int || constant.Sign(v) > 0 {
					why = "stops the world to change the processor count unless its argument is <= 0 (debug.go)"
				}
			case pkg == "runtime" && name == "Stack" && len(call.Args) == 2:
				if v := arg(1); v == nil || v.Kind() != constant.Bool || constant.BoolVal(v) {
					why = "stops the world to trace every goroutine unless all is false (mprof.go)"
				}
			case pkg == "runtime/pprof" && name == "Lookup" && len(call.Args) == 1:
				if v := arg(0); v != nil && v.Kind() == constant.String && constant.StringVal(v) == "goroutine" {
					why = "returns the goroutine profile, which stops the world twice to be written (mprof.go)"
				}
			}
			if why != "" {
				out = append(out, c.diag(call.Pos(),
					"%s.%s %s, and every other goroutine waits (justify a deliberate stop with a pragma)",
					pathBase(pkg), name, why))
			}
			return true
		})
	}
	return out
}
