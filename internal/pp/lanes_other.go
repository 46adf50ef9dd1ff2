//go:build !amd64

package pp

// haveAVX is false off amd64: AccumulateTileLanes runs no packed routine.
const haveAVX = false

// accumulateTileLanes4 and accumulateTileLanes8 are the packed routines'
// stand-ins on other architectures: they run no lane, so
// AccumulateTileLanes runs every lane through AccumulateTile.
func accumulateTileLanes4(px, py, pz, ax, ay, az, tile []float32, eps2 float32) int { return 0 }

func accumulateTileLanes8(px, py, pz, ax, ay, az, tile []float32, eps2 float32) int { return 0 }
