package pp

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/rng"
)

// sameBits reports whether got has want's bits, or is NaN where want is.
func sameBits(got, want float32) bool {
	return math.Float32bits(got) == math.Float32bits(want) || (got != got && want != want)
}

// edgeValues draws float32 inputs for the bitwise lanes tests. With rate 0
// every value is an ordinary normal deviate; otherwise about one value in
// rate is an edge case: ±0, a subnormal, a magnitude whose square
// underflows to 0 or overflows to Inf in float32, or, if inf is set, ±Inf.
// An infinite input turns most of a lane's sums into NaN, so only some
// trials draw one.
type edgeValues struct {
	r    *rng.Rand
	rate uint64
	inf  bool
}

func (e edgeValues) next() float32 {
	v := float32(e.r.NormFloat64())
	if e.rate == 0 || e.r.Uint64()%e.rate != 0 {
		return v
	}
	sign := float32(1)
	if e.r.Uint64()%2 == 0 {
		sign = -1
	}
	switch e.r.Uint64() % 5 {
	case 0:
		return sign * 0
	case 1:
		return sign * math.Float32frombits(uint32(1+e.r.Uint64()%0x7fffff))
	case 2:
		if e.inf {
			return sign * float32(math.Inf(1))
		}
		return v * 1e25
	case 3:
		return v * 1e-25
	default:
		return v * 1e25
	}
}

// mass draws a source mass: zero about one time in eight, else an edge
// value's magnitude or an ordinary positive mass.
func (e edgeValues) mass() float32 {
	switch e.r.Uint64() % 8 {
	case 0:
		return 0
	case 1:
		return float32(math.Abs(float64(e.next())))
	}
	return float32(e.r.Float64())
}

// lanesLeaf is a lanes leaf under test, named for the widths it runs.
type lanesLeaf struct {
	name string
	fn   func(px, py, pz, ax, ay, az, tile []float32, eps2 float32)
}

// ladder returns a lanes leaf that runs one packed routine on the lanes it
// covers and the rest through the portable per-lane loop.
func ladder(routine func(px, py, pz, ax, ay, az, tile []float32, eps2 float32) int) func(px, py, pz, ax, ay, az, tile []float32, eps2 float32) {
	return func(px, py, pz, ax, ay, az, tile []float32, eps2 float32) {
		l := routine(px, py, pz, ax, ay, az, tile, eps2)
		accumulateTileLanesGo(px[l:], py[l:], pz[l:], ax[l:], ay[l:], az[l:], tile, eps2)
	}
}

// widths returns one leaf per lane width this machine can run: the
// eight-lane AVX routine where the CPU has AVX, the four-lane SSE routine
// on amd64 (what an amd64 CPU without AVX runs), each followed by the
// per-lane loop, and the portable per-lane loop that other architectures
// run.
func widths() []lanesLeaf {
	var ls []lanesLeaf
	if haveAVX {
		ls = append(ls, lanesLeaf{"avx8", ladder(accumulateTileLanes8)})
	}
	if runtime.GOARCH == "amd64" {
		ls = append(ls, lanesLeaf{"sse4", ladder(accumulateTileLanes4)})
	}
	return append(ls, lanesLeaf{"portable", accumulateTileLanesGo})
}

// TestAccumulateTileLanesBitwise requires every lane of AccumulateTileLanes,
// and of every lane width on its own, to equal AccumulateTile for that lane
// bit for bit (or both NaN), for every lane count 0-70 and tile length
// 0-80, including zero softening with bodies coincident with sources
// (r2 == 0), zero-mass sources, and ±0, subnormal and infinite inputs.
// Lanes past len(px) must be left alone. It logs the widths it ran.
func TestAccumulateTileLanesBitwise(t *testing.T) {
	r := rng.New(3)
	leaves := append([]lanesLeaf{{"AccumulateTileLanes", AccumulateTileLanes}}, widths()...)
	var names []string
	for _, leaf := range leaves[1:] {
		names = append(names, leaf.name)
	}
	t.Logf("lane widths: %s", strings.Join(names, ", "))
	const guard = 3 // sentinel lanes past len(px) in every running sum
	sentinel := float32(-7.25)
	for n := 0; n <= 70; n++ {
		for k := 0; k <= 80; k++ {
			e := edgeValues{r: r, rate: []uint64{0, 64, 6}[(n+k)%3], inf: r.Uint64()%4 == 0}
			tile := make([]float32, 4*k+int(r.Uint64()%4)) // a partial source at the end is ignored
			for i := range tile {
				tile[i] = e.next()
			}
			for i := 0; i < k; i++ {
				tile[4*i+3] = e.mass()
			}
			eps2 := float32(0)
			if r.Uint64()%3 != 0 {
				eps2 = float32(r.Float64() * 0.01)
			}
			var lanes [6][]float32 // px, py, pz, ax0, ay0, az0
			for c := range lanes {
				lanes[c] = make([]float32, n+guard)
				for l := range lanes[c] {
					lanes[c][l] = e.next()
				}
			}
			for l := 0; l < n && k > 0; l++ {
				if r.Uint64()%4 == 0 { // coincident with a source
					i := int(r.Uint64() % uint64(k))
					lanes[0][l], lanes[1][l], lanes[2][l] = tile[4*i], tile[4*i+1], tile[4*i+2]
				}
			}
			px, py, pz := lanes[0][:n], lanes[1], lanes[2]
			for _, leaf := range leaves {
				ax, ay, az := clone(lanes[3], sentinel, n), clone(lanes[4], sentinel, n), clone(lanes[5], sentinel, n)
				leaf.fn(px, py, pz, ax, ay, az, tile, eps2)
				for l := 0; l < n; l++ {
					wx, wy, wz := AccumulateTile(px[l], py[l], pz[l], lanes[3][l], lanes[4][l], lanes[5][l], tile, eps2)
					if !sameBits(ax[l], wx) || !sameBits(ay[l], wy) || !sameBits(az[l], wz) {
						t.Fatalf("%s: %d lanes, %d sources, eps2 %g: lane %d got (%g,%g,%g) bits (%#x,%#x,%#x), AccumulateTile (%g,%g,%g) bits (%#x,%#x,%#x)",
							leaf.name, n, k, eps2, l, ax[l], ay[l], az[l],
							math.Float32bits(ax[l]), math.Float32bits(ay[l]), math.Float32bits(az[l]),
							wx, wy, wz, math.Float32bits(wx), math.Float32bits(wy), math.Float32bits(wz))
					}
				}
				for l := n; l < n+guard; l++ {
					if ax[l] != sentinel || ay[l] != sentinel || az[l] != sentinel {
						t.Fatalf("%s: %d lanes: lane %d past len(px) was written", leaf.name, n, l)
					}
				}
			}
		}
	}
}

// clone copies the first n values of s, followed by guard lanes holding
// sentinel.
func clone(s []float32, sentinel float32, n int) []float32 {
	c := append([]float32(nil), s...)
	for l := n; l < len(c); l++ {
		c[l] = sentinel
	}
	return c
}

var benchSink float32

// BenchmarkAccumulateTileLanes folds a 64-source tile into 24 lanes, the
// shape of a jw walk, through each lane width this machine runs, and
// reports ns per interaction for each.
func BenchmarkAccumulateTileLanes(b *testing.B) {
	const lanes, sources = 24, 64
	r := rng.New(4)
	tile := make([]float32, 4*sources)
	for i := range tile {
		tile[i] = float32(r.NormFloat64())
	}
	var st [6][]float32
	for c := range st {
		st[c] = make([]float32, lanes)
		for l := range st[c] {
			st[c][l] = float32(r.NormFloat64())
		}
	}
	for _, leaf := range widths() {
		b.Run(fmt.Sprintf("%s/lanes=%d/sources=%d", leaf.name, lanes, sources), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				leaf.fn(st[0], st[1], st[2], st[3], st[4], st[5], tile, 0.0025)
			}
			benchSink = st[3][0]
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*lanes*sources), "ns/interaction")
		})
	}
}
