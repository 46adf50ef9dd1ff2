package pp

// haveAVX reports whether the CPU runs AVX instructions and the OS saves
// the YMM registers, so AccumulateTileLanes may run accumulateTileLanes8.
// It is read once, when the package is initialised.
var haveAVX = cpuHasAVX()

// cpuHasAVX reports AVX support through CPUID and XGETBV.
func cpuHasAVX() bool

// accumulateTileLanes4 runs AccumulateTileLanes for lanes [0, len(px)&^3),
// four lanes per SSE instruction, and returns len(px)&^3. py, pz, ax, ay
// and az must be at least len(px) long. Each lane performs AccumulateInto's
// single-precision operations in AccumulateTile's order, and packed SSE
// rounds every lane as the scalar instructions do (round to nearest, no
// flush to zero: Go leaves MXCSR at its default), so every lane's sums are
// bit for bit AccumulateTile's.
//
//go:noescape
func accumulateTileLanes4(px, py, pz, ax, ay, az, tile []float32, eps2 float32) int

// accumulateTileLanes8 is accumulateTileLanes4 for lanes [0, len(px)&^7),
// eight lanes per AVX instruction; it returns len(px)&^7. Only a CPU with
// haveAVX set may run it. The VEX forms round every lane as the SSE forms
// do, so every lane's sums are bit for bit AccumulateTile's.
//
//go:noescape
func accumulateTileLanes8(px, py, pz, ax, ay, az, tile []float32, eps2 float32) int
