// Package morton implements 3-dimensional Morton (Z-order) encoding and a
// radix sort of the resulting keys.
//
// Sorting bodies in Morton order before the Barnes-Hut tree build makes the
// bodies of each octree leaf contiguous in memory, which is what lets the
// w- and jw-parallel plans treat a walk's bodies as a dense range and load
// them with coalesced accesses.
package morton

// Bits is the number of bits encoded per axis; 3*Bits = 63 fits a uint64.
const Bits = 21

// spread3 inserts two zero bits between each of the low 21 bits of x.
func spread3(x uint64) uint64 {
	x &= 0x1fffff
	x = (x | x<<32) & 0x1f00000000ffff
	x = (x | x<<16) & 0x1f0000ff0000ff
	x = (x | x<<8) & 0x100f00f00f00f00f
	x = (x | x<<4) & 0x10c30c30c30c30c3
	x = (x | x<<2) & 0x1249249249249249
	return x
}

// Encode interleaves three 21-bit axis indices into a single Morton key.
// Axis values larger than 2^21-1 are truncated to the low 21 bits.
func Encode(ix, iy, iz uint32) uint64 {
	return spread3(uint64(ix)) | spread3(uint64(iy))<<1 | spread3(uint64(iz))<<2
}

// Sorter is a reusable radix sorter: it owns the scratch buffers the LSD
// passes ping-pong through, so steady-state sorts allocate nothing. The zero
// value is ready to use; buffers grow to the largest input seen and are
// retained between calls.
type Sorter struct {
	tmpK []uint64
	tmpI []int32
}

// Sort sorts keys (and the parallel idx slice, which may be nil) in place
// with a stable 8-bit LSD radix sort — O(N) rather than O(N log N) —
// reusing the sorter's scratch.
func (s *Sorter) Sort(keys []uint64, idx []int32) {
	n := len(keys)
	if n < 2 {
		return
	}
	if cap(s.tmpK) < n {
		s.tmpK = make([]uint64, n)
	}
	tmpK := s.tmpK[:n]
	var tmpI []int32
	if idx != nil {
		if len(idx) != n {
			panic("morton: idx length mismatch")
		}
		if cap(s.tmpI) < n {
			s.tmpI = make([]int32, n)
		}
		tmpI = s.tmpI[:n]
	}
	var count [256]int
	for shift := uint(0); shift < 64; shift += 8 {
		for i := range count {
			count[i] = 0
		}
		for _, k := range keys {
			count[(k>>shift)&0xff]++
		}
		if count[0] == n {
			// Every key has a zero byte at this position; the pass would be
			// the identity permutation.
			continue
		}
		sum := 0
		for i := range count {
			c := count[i]
			count[i] = sum
			sum += c
		}
		for i, k := range keys {
			b := (k >> shift) & 0xff
			tmpK[count[b]] = k
			if idx != nil {
				tmpI[count[b]] = idx[i]
			}
			count[b]++
		}
		copy(keys, tmpK)
		if idx != nil {
			copy(idx, tmpI)
		}
	}
}
