package pp

import (
	"math"

	"repro/internal/body"
	"repro/internal/vec"
)

// sqrt32 is the float32 square root used by the shared kernels (the same
// math.Sqrt round trip as AccumulateInto, so results stay bit-comparable).
func sqrt32(x float32) float32 { return float32(math.Sqrt(float64(x))) }

// FlopsPerJerkInteraction is the conventional operation count charged per
// body-body interaction of the combined acceleration+jerk kernel the Hermite
// integrator needs (the 38-op softened force plus the extra dot product,
// scaling and vector arithmetic of d(accel)/dt), following the Hermite GPU
// literature (Belleman et al., Nitadori & Makino).
const FlopsPerJerkInteraction = 60

// AccumulateJerkInto adds the softened acceleration and jerk (time derivative
// of the acceleration) exerted by a source at position (sx,sy,sz) with
// velocity (swx,swy,swz) and mass sm onto the body at (px,py,pz) moving with
// (vx,vy,vz):
//
//	a = m r / (r^2 + eps^2)^(3/2)
//	j = m [ v / (r^2 + eps^2)^(3/2) - 3 (r.v) r / (r^2 + eps^2)^(5/2) ]
//
// with r the separation and v the relative velocity. Like AccumulateInto it
// is the single shared inner kernel, so the CPU reference and the simulated
// GPU jerk kernels compute bit-comparable interactions.
func AccumulateJerkInto(px, py, pz, vx, vy, vz, sx, sy, sz, swx, swy, swz, sm, eps2 float32) (acc, jerk vec.V3) {
	dx := sx - px
	dy := sy - py
	dz := sz - pz
	dvx := swx - vx
	dvy := swy - vy
	dvz := swz - vz
	r2 := dx*dx + dy*dy + dz*dz + eps2
	if r2 == 0 {
		// Coincident bodies with zero softening: zero force and zero jerk,
		// matching AccumulateInto's convention.
		return vec.V3{}, vec.V3{}
	}
	inv := 1 / sqrt32(r2)
	inv2 := inv * inv
	inv3 := inv * inv2 * sm
	rv3 := 3 * (dx*dvx + dy*dvy + dz*dvz) * inv2
	acc = vec.V3{X: dx * inv3, Y: dy * inv3, Z: dz * inv3}
	jerk = vec.V3{
		X: (dvx - rv3*dx) * inv3,
		Y: (dvy - rv3*dy) * inv3,
		Z: (dvz - rv3*dz) * inv3,
	}
	return acc, jerk
}

// AccumulateJerkTile adds the interactions of a contiguous tile of sources,
// 7 floats each (x, y, z, m, vx, vy, vz), in order, onto the running
// acceleration (ax,ay,az) and jerk (jx,jy,jz) of the body at (px,py,pz)
// moving with (vx,vy,vz), and returns the new sums. It is the per-lane tile
// loop of the i-parallel jerk kernel, the jerk counterpart of AccumulateTile.
func AccumulateJerkTile(px, py, pz, vx, vy, vz, ax, ay, az, jx, jy, jz float32, tile []float32, eps2 float32) (float32, float32, float32, float32, float32, float32) {
	for len(tile) >= 7 {
		a, j := AccumulateJerkInto(px, py, pz, vx, vy, vz,
			tile[0], tile[1], tile[2], tile[4], tile[5], tile[6], tile[3], eps2)
		ax += a.X
		ay += a.Y
		az += a.Z
		jx += j.X
		jy += j.Y
		jz += j.Z
		tile = tile[7:]
	}
	return ax, ay, az, jx, jy, jz
}

// ScalarJerk computes accelerations (into s.Acc) and jerks (into jerk, which
// must have length s.N()) for the bodies listed in active, each summed over
// all N sources with the straightforward double loop. It is the reference the
// GPU jerk kernels are validated against, and the CPU fallback the simulation
// driver uses for engines without a jerk path. Only the active slots of s.Acc
// and jerk are written. The self-interaction is included (zero contribution
// with any eps > 0), keeping the loop branch-free like the force kernels. It
// returns the number of interactions evaluated.
func ScalarJerk(s *body.System, active []int, jerk []vec.V3, p Params) int64 {
	n := s.N()
	eps2 := p.Eps * p.Eps
	for _, i := range active {
		pi := s.Pos[i]
		vi := s.Vel[i]
		var acc, jrk vec.V3
		for j := 0; j < n; j++ {
			pj := s.Pos[j]
			vj := s.Vel[j]
			a, jk := AccumulateJerkInto(pi.X, pi.Y, pi.Z, vi.X, vi.Y, vi.Z,
				pj.X, pj.Y, pj.Z, vj.X, vj.Y, vj.Z, s.Mass[j], eps2)
			acc = acc.Add(a)
			jrk = jrk.Add(jk)
		}
		s.Acc[i] = acc.Scale(p.G)
		jerk[i] = jrk.Scale(p.G)
	}
	return int64(len(active)) * int64(n)
}
