//go:build !amd64

package body

// potentialRow is the portable row on architectures without the SSE2
// routine.
func potentialRow(x, y, z, m []float64, xi, yi, zi, mi, e2, e float64) float64 {
	return potentialRowGo(x, y, z, m, xi, yi, zi, mi, e2, e)
}
