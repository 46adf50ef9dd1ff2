//go:build !amd64

package pp

// accumulateTileLanes4 is the SSE routine's stand-in on other
// architectures: it runs no lane, so AccumulateTileLanes runs every lane
// through AccumulateTile.
func accumulateTileLanes4(px, py, pz, ax, ay, az, tile []float32, eps2 float32) int { return 0 }
