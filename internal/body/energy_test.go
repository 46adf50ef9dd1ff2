package body

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/vec"
)

// potentialEnergyRef is the scalar loop PotentialEnergy must reproduce bit
// for bit: one term at a time, in index order, on float64 widenings.
func potentialEnergyRef(s *System, g, eps float64) float64 {
	var e float64
	e2 := eps * eps
	n := s.N()
	for i := 0; i < n; i++ {
		pi := s.Pos[i].D3()
		mi := float64(s.Mass[i])
		for j := i + 1; j < n; j++ {
			d := s.Pos[j].D3().Sub(pi)
			e -= mi * float64(s.Mass[j]) / math.Sqrt(d.Norm2()+e2)
		}
	}
	return g * e
}

// energyCase is one input family of TestPotentialEnergyBitwise.
type energyCase struct {
	name string
	eps  float64
	g    float64
	// edit changes the system energySystem drew, in place.
	edit func(r *rng.Rand, s *System)
}

var energyCases = []energyCase{
	{"plain", 0.05, 1, nil},
	{"eps0", 0, 1, nil},
	{"g", 0.01, -2.5, nil},
	{"coincident-eps0", 0, 1, func(r *rng.Rand, s *System) {
		for i := 1; i < s.N(); i += 3 {
			s.Pos[i] = s.Pos[int(r.Uint64()%uint64(i))]
		}
	}},
	{"zero-mass", 0, 0.5, func(r *rng.Rand, s *System) {
		for i := 0; i < s.N(); i += 2 {
			s.Mass[i] = 0
		}
		for i := 1; i < s.N(); i += 4 {
			s.Pos[i] = s.Pos[i-1] // zero mass on a coincident pair: 0/0
		}
	}},
	{"nan", 0.05, 1, func(r *rng.Rand, s *System) {
		if n := s.N(); n > 0 {
			s.Pos[int(r.Uint64()%uint64(n))].Y = float32(math.NaN())
		}
	}},
	{"inf", 0.05, 1, func(r *rng.Rand, s *System) {
		if n := s.N(); n > 0 {
			s.Pos[int(r.Uint64()%uint64(n))].Z = float32(math.Inf(-1))
		}
	}},
	{"subnormal", 0, 1, func(r *rng.Rand, s *System) {
		for i := range s.Pos {
			s.Pos[i] = vec.V3{X: subnormal(r), Y: subnormal(r), Z: subnormal(r)}
		}
	}},
	{"huge", 1e28, 3, func(r *rng.Rand, s *System) {
		for i := range s.Pos {
			s.Pos[i] = s.Pos[i].Scale(1e30)
		}
	}},
}

// subnormal draws a float32 subnormal of either sign.
func subnormal(r *rng.Rand) float32 {
	v := math.Float32frombits(uint32(1 + r.Uint64()%0x7fffff))
	if r.Uint64()%2 == 0 {
		return -v
	}
	return v
}

// energySystem returns n bodies at normal-deviate positions with masses in
// [0, 1), edited by edit.
func energySystem(r *rng.Rand, n int, edit func(*rng.Rand, *System)) *System {
	s := NewSystem(n)
	for i := range s.Pos {
		s.Pos[i] = vec.V3{X: float32(r.NormFloat64()), Y: float32(r.NormFloat64()), Z: float32(r.NormFloat64())}
		s.Mass[i] = float32(r.Float64())
	}
	if edit != nil {
		edit(r, s)
	}
	return s
}

// sameBits64 reports whether got has want's bits, or both are NaN.
func sameBits64(got, want float64) bool {
	return math.Float64bits(got) == math.Float64bits(want) || (got != got && want != want)
}

// TestPotentialEnergyBitwise requires PotentialEnergy, and the portable row
// that architectures without the SSE2 routine run, to return the scalar
// loop's bits (or NaN where it does) for N 0-70, 2047 and 2048: with and
// without softening, with G != 1, bodies coincident at zero softening (an
// infinite term), zero masses, a NaN or an infinite coordinate, subnormal
// positions and positions of order 1e30.
func TestPotentialEnergyBitwise(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The reference compiles to fused multiply-adds on arm64 and other
		// architectures; the rows do not.
		t.Skip("the scalar reference rounds as the rows do only on amd64")
	}
	r := rng.New(7)
	sizes := []int{2047, 2048}
	for n := 0; n <= 70; n++ {
		sizes = append(sizes, n)
	}
	rows := []struct {
		name string
		fn   func(s *System, g, eps float64) float64
	}{
		{"PotentialEnergy", (*System).PotentialEnergy},
		{"portable", func(s *System, g, eps float64) float64 { return s.potentialEnergy(g, eps, potentialRowGo) }},
	}
	var infinite, nan int
	for _, n := range sizes {
		for _, c := range energyCases {
			s := energySystem(r, n, c.edit)
			want := potentialEnergyRef(s, c.g, c.eps)
			switch {
			case math.IsInf(want, 0):
				infinite++
			case want != want:
				nan++
			}
			for _, row := range rows {
				if got := row.fn(s, c.g, c.eps); !sameBits64(got, want) {
					t.Fatalf("%s: N %d, %s: got %v (%#x), scalar loop %v (%#x)",
						row.name, n, c.name, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
	}
	if infinite == 0 || nan == 0 {
		t.Fatalf("no case reached an infinite (%d) or NaN (%d) energy", infinite, nan)
	}
}

// TestPotentialEnergyReusesScratch requires a warm PotentialEnergy to
// allocate nothing: its float64 scratch comes from the free list.
func TestPotentialEnergyReusesScratch(t *testing.T) {
	s := energySystem(rng.New(8), 2048, nil)
	if a := testing.AllocsPerRun(5, func() { s.PotentialEnergy(1, 0.05) }); a != 0 {
		t.Fatalf("warm PotentialEnergy at N 2048 allocates %v times, want 0", a)
	}
}

// TestPotentialEnergyConcurrent runs PotentialEnergy from several
// goroutines at once on systems of different sizes, so buffers of every
// size pass through the scratch free list, and requires each call to
// return the bits of a call made alone. CI runs it under -race.
func TestPotentialEnergyConcurrent(t *testing.T) {
	r := rng.New(10)
	var systems []*System
	var want []float64
	for _, n := range []int{3, 64, 257, 1000} {
		s := energySystem(r, n, nil)
		systems = append(systems, s)
		want = append(want, s.PotentialEnergy(1, 0.05))
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				i := (w + k) % len(systems)
				if got := systems[i].PotentialEnergy(1, 0.05); math.Float64bits(got) != math.Float64bits(want[i]) {
					t.Errorf("goroutine %d: N %d: got %v, alone %v", w, systems[i].N(), got, want[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestPotentialEnergyYields requires a long PotentialEnergy call to let
// other goroutines run. Under GOMAXPROCS(1), a goroutine that wakes 1 ms
// into a call at N 8192 must run within the first half of the time the
// call takes alone (tens of ms), not when the call ends: the NOSPLIT rows
// give the runtime no preemption point, so only the sum's own yields do.
func TestPotentialEnergyYields(t *testing.T) {
	s := energySystem(rng.New(11), 8192, nil)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	begin := time.Now()
	s.PotentialEnergy(1, 0.05)
	alone := time.Since(begin)

	var ran atomic.Int64
	done := make(chan struct{})
	begin = time.Now()
	go func() {
		defer close(done)
		time.Sleep(time.Millisecond)
		ran.Store(int64(time.Since(begin)))
	}()
	s.PotentialEnergy(1, 0.05)
	took := time.Since(begin)
	after := time.Duration(ran.Load())
	<-done
	t.Logf("N 8192: the call takes %v alone, %v with the goroutine, which ran %v after the call began", alone, took, after)
	if after == 0 || after > alone/2 {
		t.Fatalf("a goroutine woken 1 ms into a %v call ran %v after it began (0: not before the call returned), want within %v",
			alone, after, alone/2)
	}
}

// The diagnostics as they were written before each product that feeds a
// sum was converted explicitly. gc fuses no multiply-add on amd64, so there
// they are the loops the converted forms must reproduce bit for bit.

func centerOfMassRef(s *System) vec.D3 {
	var com vec.D3
	var m float64
	for i := range s.Pos {
		w := float64(s.Mass[i])
		com = com.Add(s.Pos[i].D3().Scale(w))
		m += w
	}
	if m == 0 {
		return vec.D3{}
	}
	return com.Scale(1 / m)
}

func momentumRef(s *System) vec.D3 {
	var p vec.D3
	for i := range s.Vel {
		p = p.Add(s.Vel[i].D3().Scale(float64(s.Mass[i])))
	}
	return p
}

func angularMomentumRef(s *System) vec.D3 {
	var l vec.D3
	for i := range s.Pos {
		r := s.Pos[i].D3()
		v := s.Vel[i].D3().Scale(float64(s.Mass[i]))
		l = l.Add(vec.D3{
			X: r.Y*v.Z - r.Z*v.Y,
			Y: r.Z*v.X - r.X*v.Z,
			Z: r.X*v.Y - r.Y*v.X,
		})
	}
	return l
}

func kineticEnergyRef(s *System) float64 {
	var e float64
	for i := range s.Vel {
		e += 0.5 * float64(s.Mass[i]) * s.Vel[i].D3().Norm2()
	}
	return e
}

func recenterRef(s *System) {
	com := centerOfMassRef(s).V3()
	m := s.TotalMass()
	var vel vec.V3
	if m > 0 {
		vel = momentumRef(s).Scale(1 / m).V3()
	}
	for i := range s.Pos {
		s.Pos[i] = s.Pos[i].Sub(com)
		s.Vel[i] = s.Vel[i].Sub(vel)
	}
}

// TestDiagnosticsBitwise requires CenterOfMass, Momentum, AngularMomentum,
// KineticEnergy and Recenter to return the bits of their unconverted loops
// (or NaN where those do) for N 0-70 and 2047, over every input family of
// TestPotentialEnergyBitwise with normal-deviate velocities that the
// family edits as it edits positions.
func TestDiagnosticsBitwise(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the unconverted loops round as the converted ones only on amd64")
	}
	r := rng.New(12)
	sizes := []int{2047}
	for n := 0; n <= 70; n++ {
		sizes = append(sizes, n)
	}
	sameD3 := func(got, want vec.D3) bool {
		return sameBits64(got.X, want.X) && sameBits64(got.Y, want.Y) && sameBits64(got.Z, want.Z)
	}
	for _, n := range sizes {
		for _, c := range energyCases {
			s := energySystem(r, n, nil)
			for i := range s.Vel {
				s.Vel[i] = vec.V3{X: float32(r.NormFloat64()), Y: float32(r.NormFloat64()), Z: float32(r.NormFloat64())}
			}
			if c.edit != nil {
				// The family edits velocities as positions: run it on a
				// copy whose positions are the velocities.
				c.edit(r, s)
				v := &System{Pos: s.Vel, Mass: s.Mass}
				c.edit(r, v)
			}
			for _, d := range []struct {
				name      string
				got, want vec.D3
			}{
				{"CenterOfMass", s.CenterOfMass(), centerOfMassRef(s)},
				{"Momentum", s.Momentum(), momentumRef(s)},
				{"AngularMomentum", s.AngularMomentum(), angularMomentumRef(s)},
			} {
				if !sameD3(d.got, d.want) {
					t.Fatalf("%s: N %d, %s: got %v, unconverted loop %v", d.name, n, c.name, d.got, d.want)
				}
			}
			if got, want := s.KineticEnergy(), kineticEnergyRef(s); !sameBits64(got, want) {
				t.Fatalf("KineticEnergy: N %d, %s: got %v (%#x), unconverted loop %v (%#x)",
					n, c.name, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			got, want := s.Clone(), s.Clone()
			got.Recenter()
			recenterRef(want)
			for i := range got.Pos {
				if !sameV3(got.Pos[i], want.Pos[i]) || !sameV3(got.Vel[i], want.Vel[i]) {
					t.Fatalf("Recenter: N %d, %s: body %d at %v, %v; unconverted %v, %v",
						n, c.name, i, got.Pos[i], got.Vel[i], want.Pos[i], want.Vel[i])
				}
			}
		}
	}
}

// sameV3 reports whether got has want's bits, component by component, or
// both components are NaN.
func sameV3(got, want vec.V3) bool {
	same := func(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b) }
	return same(got.X, want.X) && same(got.Y, want.Y) && same(got.Z, want.Z)
}

var energySink float64

// BenchmarkPotentialEnergy reports ns per pair for PotentialEnergy and for
// the portable row at N 384 and 2048.
func BenchmarkPotentialEnergy(b *testing.B) {
	for _, n := range []int{384, 2048} {
		s := energySystem(rng.New(9), n, nil)
		pairs := float64(n) * float64(n-1) / 2
		for _, row := range []struct {
			name string
			fn   func(x, y, z, m []float64, xi, yi, zi, mi, e2, e float64) float64
		}{
			{"PotentialEnergy", potentialRow},
			{"portable", potentialRowGo},
		} {
			b.Run(fmt.Sprintf("%s/N=%d", row.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					energySink = s.potentialEnergy(1, 0.05, row.fn)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*pairs), "ns/pair")
			})
		}
	}
}
