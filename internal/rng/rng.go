// Package rng provides small, deterministic pseudo-random number generators
// for reproducible workload generation.
//
// The simulation and benchmark harness must generate identical initial
// conditions on every run and on every platform, so the package implements
// its own generators (SplitMix64 for seeding, xoshiro256** for the stream)
// instead of relying on math/rand, whose stream is not guaranteed stable
// across Go releases.
package rng

import "math"

// SplitMix64 advances the given state and returns the next value of the
// SplitMix64 sequence. It is used to expand a single seed into the larger
// state required by xoshiro256**.
func SplitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Rand is a xoshiro256** pseudo-random generator. The zero value is not
// valid; construct instances with New.
type Rand struct {
	s [4]uint64

	// cached second Gaussian from the Box-Muller transform
	gauss    float64
	hasGauss bool
}

// New returns a generator seeded deterministically from seed.
func New(seed uint64) *Rand {
	var r Rand
	sm := seed
	for i := range r.s {
		r.s[i] = SplitMix64(&sm)
	}
	// A state of all zeros is the single invalid xoshiro state. SplitMix64
	// cannot produce four consecutive zeros, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return &r
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next value of the xoshiro256** sequence.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17

	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Float64Range returns a uniform value in [lo, hi).
func (r *Rand) Float64Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// NormFloat64 returns a standard normal (mean 0, stddev 1) value using the
// Box-Muller transform.
func (r *Rand) NormFloat64() float64 {
	if r.hasGauss {
		r.hasGauss = false
		return r.gauss
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.gauss = v * f
	r.hasGauss = true
	return u * f
}

// UnitSphere returns a point uniformly distributed on the surface of the
// unit sphere.
func (r *Rand) UnitSphere() (x, y, z float64) {
	for {
		a := 2*r.Float64() - 1
		b := 2*r.Float64() - 1
		s := a*a + b*b
		if s >= 1 {
			continue
		}
		f := 2 * math.Sqrt(1-s)
		return a * f, b * f, 1 - 2*s
	}
}
