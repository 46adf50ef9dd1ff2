// Package fix sizes the scheduler and dumps goroutines while serving.
package fix

import (
	"io"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

const readOnly = 0

// Procs reads the processor count three ways that do not stop the world
// and sets it twice in ways that do.
func Procs(n int) int {
	p := runtime.GOMAXPROCS(0) + runtime.GOMAXPROCS(readOnly) + runtime.GOMAXPROCS(-1)
	runtime.GOMAXPROCS(n)
	return p + runtime.GOMAXPROCS(2)
}

// Stacks traces this goroutine, which does not stop the world, and every
// goroutine, which does.
func Stacks(all bool) []byte {
	buf := make([]byte, 1<<16)
	runtime.Stack(buf, false)
	runtime.Stack(buf, true)
	runtime.Stack(buf, all)
	return buf
}

// Dump writes the heap profile, which does not stop the world, then the
// goroutine profile and an execution trace, which do.
func Dump(w io.Writer) error {
	pprof.WriteHeapProfile(w)
	pprof.Lookup("goroutine").WriteTo(w, 1)
	if err := pprof.Lookup("heap").WriteTo(w, 0); err != nil {
		return err
	}
	return trace.Start(w)
}
