package bh

import (
	"fmt"
	"testing"

	"repro/internal/ic"
)

func BenchmarkBuild(b *testing.B) {
	for _, n := range []int{1024, 8192, 65536} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			s := ic.Plummer(n, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Build(s, DefaultOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAccel(b *testing.B) {
	for _, n := range []int{1024, 8192} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			s := ic.Plummer(n, 1)
			tree, err := Build(s, DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var inter int64
			for i := 0; i < b.N; i++ {
				st := tree.Accel(0)
				inter = st.Interactions
			}
			b.ReportMetric(float64(inter), "interactions/op")
		})
	}
}

func BenchmarkBuildWalks(b *testing.B) {
	for _, cap := range []int{16, 64} {
		b.Run(fmt.Sprintf("cap=%d", cap), func(b *testing.B) {
			s := ic.Plummer(8192, 1)
			tree, err := Build(s, DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tree.BuildWalks(cap); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBuilderStep measures the full pooled host step — tree build plus
// walk construction — with allocation reporting: the serial variant is the
// allocation-free steady state the CI gate pins at 0 allocs/op, the parallel
// variant (walks built on every CPU) is the wall-clock path the speedup gate
// compares.
func BenchmarkBuilderStep(b *testing.B) {
	for _, n := range []int{1024, 8192, 32768} {
		for _, bc := range []struct {
			name    string
			workers int
		}{{"serial", 1}, {"parallel", 0}} {
			b.Run(fmt.Sprintf("%s/N=%d", bc.name, n), func(b *testing.B) {
				s := ic.Plummer(n, 1)
				bl := &Builder{Workers: bc.workers}
				step := func() {
					tree, err := bl.BuildInto(s, DefaultOptions())
					if err != nil {
						b.Fatal(err)
					}
					if _, err := bl.BuildWalksInto(tree, 64); err != nil {
						b.Fatal(err)
					}
				}
				step() // warm the arenas; steady state is what's measured
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					step()
				}
			})
		}
	}
}

// BenchmarkBuilderBuild isolates the tree build (no walks) on a warm
// builder, which allocates nothing; BenchmarkBuild runs the same partition
// through a fresh builder per call, so the gap between them is the cost of
// cold arenas.
func BenchmarkBuilderBuild(b *testing.B) {
	for _, n := range []int{1024, 8192, 65536} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			s := ic.Plummer(n, 1)
			bl := &Builder{}
			if _, err := bl.BuildInto(s, DefaultOptions()); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := bl.BuildInto(s, DefaultOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWalkSetValidate is the regression benchmark for the pooled
// covered bitmap: steady-state Validate must report 0 allocs/op.
func BenchmarkWalkSetValidate(b *testing.B) {
	s := ic.Plummer(8192, 1)
	var bl Builder
	tree, err := bl.BuildInto(s, DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	ws, err := bl.BuildWalksInto(tree, 64)
	if err != nil {
		b.Fatal(err)
	}
	if err := ws.Validate(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ws.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWalkEval(b *testing.B) {
	s := ic.Plummer(8192, 1)
	tree, err := Build(s, DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	ws, err := tree.BuildWalks(24)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.Eval()
	}
	b.ReportMetric(float64(ws.Interactions()), "interactions/op")
}
