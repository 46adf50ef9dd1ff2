// Package pp implements the particle-particle (PP) direct-summation force
// calculation of Section 2.1 of the paper: every body interacts with every
// other body through the softened gravitational kernel
//
//	a_i = G * sum_j m_j * r_ij / (|r_ij|^2 + eps^2)^(3/2)
//
// Three CPU variants are provided. Scalar is the reference against which
// every other engine in the repository (including the GPU plans) is
// validated; Tiled adds cache blocking; Parallel distributes the i-loop over
// goroutines. All variants compute identical interactions and account the
// conventional 38 floating-point operations per interaction used by the GPU
// N-body literature when reporting GFLOPS.
//
// Every engine, CPU or emulated GPU, computes an interaction through one
// inlinable body, AccumulateInto, or through its packed AVX or SSE form,
// which rounds every lane as the body does. Kernels do not loop over
// sources themselves. A work-group's lanes fold a staged tile into their
// running sums with one AccumulateTileLanes call, or stream an interaction
// list with one AccumulateGatherLanes call; on amd64 both evaluate eight
// lanes per instruction where the CPU has AVX, then four, and the leftover
// lanes and every other architecture run AccumulateTile, the per-lane
// reference. The jerk kernel's lanes call AccumulateJerkTile one by one.
package pp

import (
	"math"
	"runtime"
	"sync"

	"repro/internal/body"
	"repro/internal/vec"
)

// FlopsPerInteraction is the conventional operation count charged per
// body-body interaction when converting interaction rates to GFLOPS
// (20 arithmetic ops plus the cost of the reciprocal square root expanded to
// its Newton-iteration sequence), following Nyland et al. and Hamada et al.
const FlopsPerInteraction = 38

// Params configures the force kernel.
type Params struct {
	G   float32 // gravitational constant
	Eps float32 // Plummer softening length; must be > 0 for collision safety
}

// DefaultParams returns the parameter set used by the paper's experiments:
// G = 1 (model units) and a softening of 0.05 scale radii.
func DefaultParams() Params { return Params{G: 1, Eps: 0.05} }

// AccumulateInto returns the softened acceleration exerted by a source at
// position (sx,sy,sz) with mass sm on the body at (px,py,pz). It is the one
// interaction body every engine calls, so all of them compute bit-comparable
// interactions, and it stays within the compiler's inline budget so that
// callers pay for no call.
func AccumulateInto(px, py, pz, sx, sy, sz, sm, eps2 float32) (ax, ay, az float32) {
	dx, dy, dz := sx-px, sy-py, sz-pz
	r2 := dx*dx + dy*dy + dz*dz + eps2
	if r2 != 0 { // coincident bodies with zero softening: zero force, not NaN
		inv := 1 / float32(math.Sqrt(float64(r2)))
		inv3 := inv * inv * inv * sm
		ax, ay, az = dx*inv3, dy*inv3, dz*inv3
	}
	return
}

// AccumulateTile adds the interactions of a contiguous tile of x,y,z,m
// sources, in order, onto the running sum (ax,ay,az) of the body at
// (px,py,pz) and returns the new sum. It is the per-lane tile loop of the
// kernels that stage sources through local memory. As a top-level leaf it
// compiles to a loop with AccumulateInto inlined, which a kernel closure
// calling AccumulateInto per source does not get.
func AccumulateTile(px, py, pz, ax, ay, az float32, tile []float32, eps2 float32) (float32, float32, float32) {
	for len(tile) >= 4 {
		x, y, z := AccumulateInto(px, py, pz, tile[0], tile[1], tile[2], tile[3], eps2)
		ax += x
		ay += y
		az += z
		tile = tile[4:]
	}
	return ax, ay, az
}

// AccumulateTileLanes folds a contiguous tile of x,y,z,m sources, in order,
// into the running sum (ax[l],ay[l],az[l]) of every lane l, whose body sits
// at (px[l],py[l],pz[l]). Each lane ends with the bits AccumulateTile
// returns for it. py, pz, ax, ay and az must be at least len(px) long. It
// is the tile leaf of the kernels that stage sources through local memory.
// On amd64 it runs groups of eight lanes per AVX instruction where the CPU
// has AVX, then groups of four per SSE instruction, and the leftover lanes
// through AccumulateTile; elsewhere every lane runs through AccumulateTile.
func AccumulateTileLanes(px, py, pz, ax, ay, az, tile []float32, eps2 float32) {
	n := len(px)
	py, pz, ax, ay, az = py[:n], pz[:n], ax[:n], ay[:n], az[:n]
	l := 0
	if haveAVX {
		l = accumulateTileLanes8(px, py, pz, ax, ay, az, tile, eps2)
	}
	l += accumulateTileLanes4(px[l:], py[l:], pz[l:], ax[l:], ay[l:], az[l:], tile, eps2)
	accumulateTileLanesGo(px[l:], py[l:], pz[l:], ax[l:], ay[l:], az[l:], tile, eps2)
}

// accumulateTileLanesGo is the portable lanes leaf: one AccumulateTile call
// per lane.
func accumulateTileLanesGo(px, py, pz, ax, ay, az, tile []float32, eps2 float32) {
	for l := range px {
		ax[l], ay[l], az[l] = AccumulateTile(px[l], py[l], pz[l], ax[l], ay[l], az[l], tile, eps2)
	}
}

// gatherTile is how many sources AccumulateGatherLanes stages per
// AccumulateTileLanes call.
const gatherTile = 64

// AccumulateGatherLanes folds the x,y,z,m sources src[4*j:4*j+4] for each j
// in list, in list order, into every lane's running sum, as
// AccumulateTileLanes does for a tile. It is the leaf of the kernels that
// stream a walk's interaction list from global memory: it gathers the list
// through a fixed-size tile on the stack, so the lanes share each gathered
// source.
func AccumulateGatherLanes(px, py, pz, ax, ay, az []float32, list []int32, src []float32, eps2 float32) {
	var tile [4 * gatherTile]float32
	for len(list) > 0 {
		k := min(len(list), gatherTile)
		for i, j := range list[:k] {
			*(*[4]float32)(tile[4*i:]) = *(*[4]float32)(src[4*int(j):])
		}
		AccumulateTileLanes(px, py, pz, ax, ay, az, tile[:4*k], eps2)
		list = list[k:]
	}
}

// Scalar computes accelerations for every body with the straightforward
// O(N^2) double loop and stores them in s.Acc. It returns the number of
// interactions evaluated. The self-interaction (i == j) is included: with a
// non-zero softening it contributes exactly zero force, which matches what
// the GPU kernels do to keep their inner loops branch-free.
func Scalar(s *body.System, p Params) (interactions int64) {
	n := s.N()
	eps2 := p.Eps * p.Eps
	for i := 0; i < n; i++ {
		pi := s.Pos[i]
		var acc vec.V3
		for j := 0; j < n; j++ {
			pj := s.Pos[j]
			x, y, z := AccumulateInto(pi.X, pi.Y, pi.Z, pj.X, pj.Y, pj.Z, s.Mass[j], eps2)
			acc.X, acc.Y, acc.Z = acc.X+x, acc.Y+y, acc.Z+z
		}
		s.Acc[i] = acc.Scale(p.G)
	}
	return int64(n) * int64(n)
}

// Tiled computes the same accelerations with the j-loop blocked into tiles
// of the given size, improving cache locality for large N. A tile size of 0
// selects a default of 256 bodies (4 KiB of position and mass data, the size
// of the local-memory tile the i-parallel plan stages).
func Tiled(s *body.System, p Params, tile int) (interactions int64) {
	if tile <= 0 {
		tile = 256
	}
	n := s.N()
	eps2 := p.Eps * p.Eps
	s.ZeroAcc()
	for j0 := 0; j0 < n; j0 += tile {
		j1 := j0 + tile
		if j1 > n {
			j1 = n
		}
		for i := 0; i < n; i++ {
			pi := s.Pos[i]
			acc := s.Acc[i]
			for j := j0; j < j1; j++ {
				pj := s.Pos[j]
				x, y, z := AccumulateInto(pi.X, pi.Y, pi.Z, pj.X, pj.Y, pj.Z, s.Mass[j], eps2)
				acc.X, acc.Y, acc.Z = acc.X+x, acc.Y+y, acc.Z+z
			}
			s.Acc[i] = acc
		}
	}
	for i := range s.Acc {
		s.Acc[i] = s.Acc[i].Scale(p.G)
	}
	return int64(n) * int64(n)
}

// Parallel distributes the i-loop of the direct sum across workers
// goroutines (GOMAXPROCS when workers <= 0). Each worker owns a disjoint
// slice of the acceleration array, so no synchronisation beyond the final
// join is needed.
func Parallel(s *body.System, p Params, workers int) (interactions int64) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := s.N()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		return Scalar(s, p)
	}
	eps2 := p.Eps * p.Eps
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				pi := s.Pos[i]
				var acc vec.V3
				for j := 0; j < n; j++ {
					pj := s.Pos[j]
					x, y, z := AccumulateInto(pi.X, pi.Y, pi.Z, pj.X, pj.Y, pj.Z, s.Mass[j], eps2)
					acc.X, acc.Y, acc.Z = acc.X+x, acc.Y+y, acc.Z+z
				}
				s.Acc[i] = acc.Scale(p.G)
			}
		}(lo, hi)
	}
	wg.Wait()
	return int64(n) * int64(n)
}

// MaxRelError returns the maximum relative acceleration error of got with
// respect to want, using |want| + floor as the denominator so that
// near-cancelling accelerations do not blow the metric up. Engines are
// validated against Scalar with this metric.
func MaxRelError(want, got []vec.V3, floor float32) float64 {
	var worst float64
	for i := range want {
		d := want[i].Sub(got[i]).Norm()
		den := want[i].Norm() + floor
		if r := float64(d / den); r > worst {
			worst = r
		}
	}
	return worst
}

// RMSRelError returns the root-mean-square relative acceleration error, the
// accuracy metric of the theta-sweep ablation.
func RMSRelError(want, got []vec.V3, floor float32) float64 {
	var sum float64
	for i := range want {
		d := want[i].Sub(got[i]).Norm()
		den := want[i].Norm() + floor
		r := float64(d / den)
		sum += r * r
	}
	if len(want) == 0 {
		return 0
	}
	return math.Sqrt(sum / float64(len(want)))
}
