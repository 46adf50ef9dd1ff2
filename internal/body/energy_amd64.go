package body

// potentialRow is potentialRowGo with two terms per SSE2 instruction. Each
// packed operation rounds both lanes as its scalar form does, and the two
// terms of a pair are subtracted from e one at a time, in source order, so
// the result is bit for bit potentialRowGo's. y, z and m must be at least
// len(x) long.
//
//go:noescape
func potentialRow(x, y, z, m []float64, xi, yi, zi, mi, e2, e float64) float64
