package gpusim

import (
	"fmt"
	"testing"
)

// barrierKernels are the two ways to write a kernel, here one that only
// crosses a number of barriers: a lane loop, and a PerItem body.
var barrierKernels = []struct {
	name   string
	kernel func(barriers int) KernelFunc
}{
	{"lanes", func(barriers int) KernelFunc {
		return func(g *Group) {
			for k := 0; k < barriers; k++ {
				g.Barrier()
			}
		}
	}},
	{"peritem", func(barriers int) KernelFunc {
		return PerItem(func(wi *Item) {
			for k := 0; k < barriers; k++ {
				wi.Barrier()
			}
		})
	}},
}

func BenchmarkLaunchOverhead(b *testing.B) {
	d := MustNewDevice(HD5850())
	for _, k := range barrierKernels {
		fn := k.kernel(0)
		for _, groups := range []int{16, 256} {
			b.Run(fmt.Sprintf("%s/groups=%d", k.name, groups), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := d.Launch("noop", fn, LaunchParams{
						Global: groups * 64, Local: 64,
					}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkBarrier(b *testing.B) {
	d := MustNewDevice(HD5850())
	for _, k := range barrierKernels {
		fn := k.kernel(16)
		for _, local := range []int{64, 256} {
			b.Run(fmt.Sprintf("%s/local=%d", k.name, local), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := d.Launch("barrier", fn, LaunchParams{Global: 4 * local, Local: local}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkCountedAccess(b *testing.B) {
	d := MustNewDevice(HD5850())
	buf := d.NewBufferF32("data", 1<<16)
	b.Run("counted-loads", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := d.Launch("loads", PerItem(func(wi *Item) {
				var sum float32
				for j := 0; j < 1024; j++ {
					sum += wi.LoadGlobalF32(buf, j)
				}
				_ = sum
			}), LaunchParams{Global: 256, Local: 64}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("raw-bulk-charged", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := d.Launch("raw", PerItem(func(wi *Item) {
				data := wi.RawGlobalF32(buf)
				wi.ChargeGlobal(4*1024, 0)
				var sum float32
				for j := 0; j < 1024; j++ {
					sum += data[j]
				}
				_ = sum
			}), LaunchParams{Global: 256, Local: 64}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkCostModel(b *testing.B) {
	d := MustNewDevice(HD5850())
	res, err := d.Launch("work", PerItem(func(wi *Item) {
		wi.Flops(1000)
		wi.ChargeGlobal(64, 16)
	}), LaunchParams{Global: 1024 * 64, Local: 64})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res.Timing = d.cost(res)
	}
}
