package morton

import (
	"testing"

	"repro/internal/rng"
)

func BenchmarkEncode(b *testing.B) {
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += Encode(uint32(i), uint32(i>>1), uint32(i>>2))
	}
	_ = sink
}

func BenchmarkRadixSort(b *testing.B) {
	r := rng.New(1)
	base := make([]uint64, 1<<16)
	for i := range base {
		base[i] = r.Uint64()
	}
	keys := make([]uint64, len(base))
	var s Sorter
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(keys, base)
		s.Sort(keys, nil)
	}
}
