// Package fix reads heap statistics on a job's path.
package fix

import (
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
)

var ms runtime.MemStats

// Mallocs counts allocations the way that stops the world, next to the
// way that does not.
func Mallocs() uint64 {
	metrics.Read(nil)
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// Squeeze forces collections; the two setters take only the heap lock.
func Squeeze(f *os.File) {
	runtime.GC()
	debug.FreeOSMemory()
	debug.WriteHeapDump(f.Fd())
	debug.SetGCPercent(50)
	debug.SetMemoryLimit(1 << 30)
}
