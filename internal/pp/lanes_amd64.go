package pp

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
