// Package body defines the particle system shared by every force engine in
// the repository.
//
// The System type stores bodies in structure-of-arrays layout, matching the
// flat float buffers the GPU kernels consume; Body is the convenience
// array-of-structures view used by examples and tests. Diagnostics (energy,
// momentum, centre of mass) accumulate in float64 even though the state is
// float32, so that conservation checks are not drowned by summation
// round-off.
package body

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/vec"
)

// Body is the array-of-structures view of a single particle.
type Body struct {
	Pos  vec.V3
	Vel  vec.V3
	Mass float32
}

// System holds N bodies in structure-of-arrays layout. All slices have the
// same length; Acc is scratch space filled by force engines.
type System struct {
	Pos  []vec.V3
	Vel  []vec.V3
	Acc  []vec.V3
	Mass []float32
}

// NewSystem returns a zeroed system of n bodies.
func NewSystem(n int) *System {
	return &System{
		Pos:  make([]vec.V3, n),
		Vel:  make([]vec.V3, n),
		Acc:  make([]vec.V3, n),
		Mass: make([]float32, n),
	}
}

// N returns the number of bodies.
func (s *System) N() int { return len(s.Pos) }

// Body returns the AoS view of body i.
func (s *System) Body(i int) Body {
	return Body{Pos: s.Pos[i], Vel: s.Vel[i], Mass: s.Mass[i]}
}

// SetBody stores the AoS view b at index i.
func (s *System) SetBody(i int, b Body) {
	s.Pos[i] = b.Pos
	s.Vel[i] = b.Vel
	s.Mass[i] = b.Mass
}

// Clone returns a deep copy of the system, including accelerations.
func (s *System) Clone() *System {
	c := NewSystem(s.N())
	copy(c.Pos, s.Pos)
	copy(c.Vel, s.Vel)
	copy(c.Acc, s.Acc)
	copy(c.Mass, s.Mass)
	return c
}

// Validate checks structural invariants: equal slice lengths, finite state,
// and strictly positive masses. It returns the first violation found.
func (s *System) Validate() error {
	n := len(s.Pos)
	if len(s.Vel) != n || len(s.Acc) != n || len(s.Mass) != n {
		return fmt.Errorf("body: ragged system: pos=%d vel=%d acc=%d mass=%d",
			len(s.Pos), len(s.Vel), len(s.Acc), len(s.Mass))
	}
	for i := 0; i < n; i++ {
		if !finite(s.Pos[i]) || !finite(s.Vel[i]) || !finite(s.Acc[i]) {
			return fmt.Errorf("body: non-finite state at index %d", i)
		}
		if !(s.Mass[i] > 0) || math.IsInf(float64(s.Mass[i]), 0) {
			return fmt.Errorf("body: non-positive or non-finite mass %g at index %d", s.Mass[i], i)
		}
	}
	return nil
}

func finite(v vec.V3) bool {
	for _, c := range [3]float32{v.X, v.Y, v.Z} {
		f := float64(c)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return false
		}
	}
	return true
}

// Bounds returns the axis-aligned bounding box of all positions.
func (s *System) Bounds() vec.AABB {
	b := vec.Empty()
	for _, p := range s.Pos {
		b = b.Extend(p)
	}
	return b
}

// TotalMass returns the summed mass in float64.
func (s *System) TotalMass() float64 {
	var m float64
	for _, mi := range s.Mass {
		m += float64(mi)
	}
	return m
}

// The float64 diagnostics below convert each product that feeds a sum
// explicitly, as potentialRowGo does, so no compiler fuses it into a
// multiply-add: every architecture rounds as amd64 does.

// CenterOfMass returns the mass-weighted mean position.
func (s *System) CenterOfMass() vec.D3 {
	var com vec.D3
	var m float64
	for i := range s.Pos {
		w := float64(s.Mass[i])
		com = com.Add(scaled(s.Pos[i], w))
		m += w
	}
	if m == 0 {
		return vec.D3{}
	}
	return com.Scale(1 / m)
}

// Momentum returns the total linear momentum.
func (s *System) Momentum() vec.D3 {
	var p vec.D3
	for i := range s.Vel {
		p = p.Add(scaled(s.Vel[i], float64(s.Mass[i])))
	}
	return p
}

// AngularMomentum returns the total angular momentum about the origin.
func (s *System) AngularMomentum() vec.D3 {
	var l vec.D3
	for i := range s.Pos {
		r := s.Pos[i].D3()
		v := s.Vel[i].D3().Scale(float64(s.Mass[i]))
		l = l.Add(vec.D3{
			X: float64(r.Y*v.Z) - float64(r.Z*v.Y),
			Y: float64(r.Z*v.X) - float64(r.X*v.Z),
			Z: float64(r.X*v.Y) - float64(r.Y*v.X),
		})
	}
	return l
}

// KineticEnergy returns sum(m v^2 / 2).
func (s *System) KineticEnergy() float64 {
	var e float64
	for i := range s.Vel {
		v := s.Vel[i].D3()
		v2 := float64(v.X*v.X) + float64(v.Y*v.Y) + float64(v.Z*v.Z)
		e += float64(0.5 * float64(s.Mass[i]) * v2)
	}
	return e
}

// scaled returns w·v in float64, each product rounded on its own.
func scaled(v vec.V3, w float64) vec.D3 {
	d := v.D3()
	return vec.D3{X: float64(w * d.X), Y: float64(w * d.Y), Z: float64(w * d.Z)}
}

// PotentialEnergy returns the exact pairwise softened potential
// -G sum_{i<j} m_i m_j / sqrt(r^2 + eps^2), summed in float64 over i, then
// j > i, in index order. It is O(N^2), and sim evaluates it at every
// snapshot of every run. It widens positions and masses to float64 once
// per call, into a scratch buffer reused across calls, and hands each row
// i to potentialRow, which on amd64 evaluates two terms per SSE2
// instruction and subtracts them from the one running sum in order. Every
// architecture returns the bits of the scalar loop compiled for amd64. The
// sum yields the processor after a row once energyYieldTerms terms have
// been summed since its last yield, so at large N it holds up neither a
// stop of the world nor a goroutine that wakes on its processor.
func (s *System) PotentialEnergy(g, eps float64) float64 {
	return s.potentialEnergy(g, eps, potentialRow)
}

// potentialEnergy is PotentialEnergy with its row routine as a parameter,
// so the portable row runs on amd64 too.
func (s *System) potentialEnergy(g, eps float64, row func(x, y, z, m []float64, xi, yi, zi, mi, e2, e float64) float64) float64 {
	n := s.N()
	buf := takeEnergyScratch(4 * n)
	x, y, z, m := buf[:n], buf[n:2*n], buf[2*n:3*n], buf[3*n:]
	for i, p := range s.Pos {
		x[i], y[i], z[i], m[i] = float64(p.X), float64(p.Y), float64(p.Z), float64(s.Mass[i])
	}
	e2 := eps * eps
	var e float64
	// The amd64 row is NOSPLIT assembly: the runtime cannot preempt it, it
	// has no stack check to stop at, and a signal almost never lands in
	// this loop between two calls. So without the yield a stop of the
	// world, or a goroutine woken on this processor, waits for the whole
	// O(N^2) sum.
	terms := 0
	for i := 0; i < n; i++ {
		e = row(x[i+1:], y[i+1:], z[i+1:], m[i+1:], x[i], y[i], z[i], m[i], e2, e)
		if terms += n - 1 - i; terms >= energyYieldTerms {
			runtime.Gosched()
			terms = 0
		}
	}
	putEnergyScratch(buf)
	return g * e
}

// energyYieldTerms is how many terms potentialEnergy sums between yields,
// about 60 µs of the SSE2 row.
const energyYieldTerms = 1 << 15

// potentialRowGo subtracts the term mi*m[j] / sqrt(dx*dx + dy*dy + dz*dz +
// e2) of the body at (xi, yi, zi) and each source j, in order, from e and
// returns it. Each product that feeds a sum is converted explicitly, so no
// compiler fuses it into a multiply-add: every architecture rounds as
// amd64 does.
func potentialRowGo(x, y, z, m []float64, xi, yi, zi, mi, e2, e float64) float64 {
	y, z, m = y[:len(x)], z[:len(x)], m[:len(x)]
	for j := range x {
		dx, dy, dz := x[j]-xi, y[j]-yi, z[j]-zi
		r2 := float64(dx*dx) + float64(dy*dy) + float64(dz*dz) + e2
		e -= mi * m[j] / math.Sqrt(r2)
	}
	return e
}

// energyScratch is PotentialEnergy's free list of scratch buffers: a
// mutex-guarded slice, not a sync.Pool, which under the race detector
// drops a random share of what it is given. It holds at most as many
// buffers as calls have run at once.
var energyScratch struct {
	sync.Mutex
	free [][]float64
}

// takeEnergyScratch returns a free buffer of length n, or a new one when
// the last free buffer is too short (which is then dropped).
func takeEnergyScratch(n int) []float64 {
	var buf []float64
	energyScratch.Lock()
	if k := len(energyScratch.free); k > 0 {
		buf = energyScratch.free[k-1]
		energyScratch.free = energyScratch.free[:k-1]
	}
	energyScratch.Unlock()
	if cap(buf) < n {
		buf = make([]float64, n)
	}
	return buf[:n]
}

// putEnergyScratch returns a buffer to the free list.
func putEnergyScratch(buf []float64) {
	energyScratch.Lock()
	energyScratch.free = append(energyScratch.free, buf)
	energyScratch.Unlock()
}

// ZeroAcc clears the acceleration scratch space.
func (s *System) ZeroAcc() {
	for i := range s.Acc {
		s.Acc[i] = vec.V3{}
	}
}

// Recenter translates positions and velocities so the centre of mass is at
// the origin and the total momentum vanishes. Initial-condition generators
// call it so that conservation tests start from exact zeros.
func (s *System) Recenter() {
	com := s.CenterOfMass().V3()
	m := s.TotalMass()
	var vel vec.V3
	if m > 0 {
		vel = s.Momentum().Scale(1 / m).V3()
	}
	for i := range s.Pos {
		s.Pos[i] = s.Pos[i].Sub(com)
		s.Vel[i] = s.Vel[i].Sub(vel)
	}
}

// FlattenPos writes positions and masses into a flat float32 buffer laid out
// as x,y,z,m quadruples — the layout the GPU kernels consume. The buffer is
// grown as needed and returned.
func (s *System) FlattenPos(dst []float32) []float32 {
	need := 4 * s.N()
	if cap(dst) < need {
		dst = make([]float32, need)
	}
	dst = dst[:need]
	for i := range s.Pos {
		dst[4*i+0] = s.Pos[i].X
		dst[4*i+1] = s.Pos[i].Y
		dst[4*i+2] = s.Pos[i].Z
		dst[4*i+3] = s.Mass[i]
	}
	return dst
}

// UnflattenAcc reads accelerations back from a flat x,y,z,(pad) quadruple
// buffer produced by a GPU kernel.
func (s *System) UnflattenAcc(src []float32) {
	n := s.N()
	if len(src) < 4*n {
		panic(fmt.Sprintf("body: UnflattenAcc buffer too small: %d < %d", len(src), 4*n))
	}
	for i := 0; i < n; i++ {
		s.Acc[i] = vec.V3{X: src[4*i+0], Y: src[4*i+1], Z: src[4*i+2]}
	}
}
