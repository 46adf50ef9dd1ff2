package morton

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/ic"
)

// compact3 is the inverse of spread3: it gathers every third bit of x into
// the low 21 bits.
func compact3(x uint64) uint64 {
	x &= 0x1249249249249249
	x = (x ^ x>>2) & 0x10c30c30c30c30c3
	x = (x ^ x>>4) & 0x100f00f00f00f00f
	x = (x ^ x>>8) & 0x1f0000ff0000ff
	x = (x ^ x>>16) & 0x1f00000000ffff
	x = (x ^ x>>32) & 0x1fffff
	return x
}

// decode splits a Morton key back into its three axis indices.
func decode(key uint64) (ix, iy, iz uint32) {
	return uint32(compact3(key)), uint32(compact3(key >> 1)), uint32(compact3(key >> 2))
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(x, y, z uint32) bool {
		x &= (1 << Bits) - 1
		y &= (1 << Bits) - 1
		z &= (1 << Bits) - 1
		gx, gy, gz := decode(Encode(x, y, z))
		return gx == x && gy == y && gz == z
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodeKnownValues(t *testing.T) {
	cases := []struct {
		x, y, z uint32
		want    uint64
	}{
		{0, 0, 0, 0},
		{1, 0, 0, 0b001},
		{0, 1, 0, 0b010},
		{0, 0, 1, 0b100},
		{1, 1, 1, 0b111},
		{2, 0, 0, 0b001000},
		{3, 3, 3, 0b111111},
	}
	for _, c := range cases {
		if got := Encode(c.x, c.y, c.z); got != c.want {
			t.Errorf("Encode(%d,%d,%d) = %#b, want %#b", c.x, c.y, c.z, got, c.want)
		}
	}
}

func TestEncodeMonotoneInOctants(t *testing.T) {
	// Points in the low octant sort before points in the high octant.
	lo := Encode(1, 1, 1)
	hi := Encode(1<<20, 1<<20, 1<<20)
	if lo >= hi {
		t.Errorf("octant ordering violated: %d >= %d", lo, hi)
	}
}

func TestRadixSortMatchesStdSort(t *testing.T) {
	f := func(keys []uint64) bool {
		mine := append([]uint64(nil), keys...)
		ref := append([]uint64(nil), keys...)
		new(Sorter).Sort(mine, nil)
		sort.Slice(ref, func(a, b int) bool { return ref[a] < ref[b] })
		for i := range mine {
			if mine[i] != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRadixSortCarriesIndices(t *testing.T) {
	keys := []uint64{5, 1, 4, 1, 3}
	idx := []int32{0, 1, 2, 3, 4}
	new(Sorter).Sort(keys, idx)
	wantKeys := []uint64{1, 1, 3, 4, 5}
	wantIdx := []int32{1, 3, 4, 2, 0} // stable
	for i := range keys {
		if keys[i] != wantKeys[i] || idx[i] != wantIdx[i] {
			t.Fatalf("got keys=%v idx=%v", keys, idx)
		}
	}
}

func TestRadixSortIdxLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on mismatched idx")
		}
	}()
	new(Sorter).Sort([]uint64{1, 2}, []int32{0})
}

func TestSortSystemIsSpatial(t *testing.T) {
	s := ic.Plummer(512, 3)
	b := s.Bounds()
	size := b.Size()
	// cell maps a coordinate to its 21-bit cell index along one axis.
	cell := func(v, lo, extent float32) uint32 {
		return uint32(float64(v-lo) / float64(extent) * (1<<Bits - 1))
	}
	keys := make([]uint64, s.N())
	idx := make([]int32, s.N())
	for i, p := range s.Pos {
		keys[i] = Encode(cell(p.X, b.Min.X, size.X), cell(p.Y, b.Min.Y, size.Y), cell(p.Z, b.Min.Z, size.Z))
		idx[i] = int32(i)
	}
	new(Sorter).Sort(keys, idx)

	// The order must be a permutation, and its keys non-decreasing.
	seen := make([]bool, len(idx))
	for i, bi := range idx {
		if seen[bi] {
			t.Fatalf("body %d ordered twice", bi)
		}
		seen[bi] = true
		if i > 0 && keys[i] < keys[i-1] {
			t.Fatalf("keys not sorted at %d", i)
		}
	}

	// Spatial locality: consecutive bodies should be much closer on average
	// than random pairs.
	var adjacent, random float64
	for i := 1; i < s.N(); i++ {
		adjacent += float64(s.Pos[idx[i]].Sub(s.Pos[idx[i-1]]).Norm())
		j := (i * 7919) % s.N()
		random += float64(s.Pos[idx[i]].Sub(s.Pos[idx[j]]).Norm())
	}
	if adjacent > 0.7*random {
		t.Errorf("Morton order not local: adjacent=%g random=%g", adjacent, random)
	}
}
