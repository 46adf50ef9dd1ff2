package gpusim

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestLaneLoopBarrierLockstep(t *testing.T) {
	// Lane 0 writes, every lane reads after the barrier: the loop after a
	// Barrier sees everything the loop before it wrote.
	d := testDev(t)
	const local = 16
	res, err := d.Launch("lockstep", func(g *Group) {
		lds := g.Item(0).RawLDS()
		for phase := 0; phase < 10; phase++ {
			lds[0] = float32(phase)
			g.Barrier()
			for l := 0; l < local; l++ {
				if g.Item(l).LoadLDS(0) != float32(phase) {
					panic("barrier did not separate the loops")
				}
			}
			g.Barrier()
		}
	}, LaunchParams{Global: local * 2, Local: local, LDSFloats: 4})
	if err != nil {
		t.Fatal(err)
	}
	for gi, g := range res.Groups {
		if g.Barriers != 20 {
			t.Errorf("group %d crossed %d barriers, want 20", gi, g.Barriers)
		}
	}
}

func TestLaneLoopLDSVisibilityAcrossBarrier(t *testing.T) {
	// Tile exchange: lane l writes slot l, then reads slot (l+1)%local.
	d := testDev(t)
	const local = 8
	out := d.NewBufferF32("out", local)
	_, err := d.Launch("exchange", func(g *Group) {
		for l := 0; l < local; l++ {
			g.Item(l).StoreLDS(l, float32(l*10))
		}
		g.Barrier()
		for l := 0; l < local; l++ {
			wi := g.Item(l)
			wi.StoreGlobalF32(out, l, wi.LoadLDS((l+1)%local))
		}
	}, LaunchParams{Global: local, Local: local, LDSFloats: local})
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < local; l++ {
		want := float32(((l + 1) % local) * 10)
		if got := out.HostF32()[l]; got != want {
			t.Errorf("slot %d = %g, want %g", l, got, want)
		}
	}
}

func TestLaneLoopCounterAccounting(t *testing.T) {
	d := testDev(t)
	buf := d.NewBufferF32("data", 64)
	ibuf := d.NewBufferI32("idx", 64)
	res, err := d.Launch("counters", func(g *Group) {
		for l := 0; l < g.LocalSize(); l++ {
			wi := g.Item(l)
			gid := wi.GlobalID()
			_ = wi.LoadGlobalF32(buf, gid)  // 4 coalesced
			wi.StoreGlobalF32(buf, gid, 1)  // 4 coalesced
			_ = wi.LoadGlobalI32(ibuf, gid) // 4 coalesced
			wi.StoreGlobalI32(ibuf, gid, 3) // 4 coalesced
			wi.StoreLDS(l, 1)               // 4 LDS
			_ = wi.LoadLDS(l)               // 4 LDS
			wi.ChargeGlobal(100, 10)
			wi.ChargeLDS(8)
			wi.Flops(7)
			wi.Aux(3)
		}
		// Lane 3 alone does extra work: its wavefront pays for it.
		g.Item(3).Flops(5)
	}, LaunchParams{Global: 16, Local: 8, LDSFloats: 8})
	if err != nil {
		t.Fatal(err)
	}
	for gi, g := range res.Groups {
		const lanes = 8
		if g.BytesCoalesced != lanes*(12+4+100) {
			t.Errorf("group %d coalesced = %d", gi, g.BytesCoalesced)
		}
		if g.BytesScattered != lanes*10 {
			t.Errorf("group %d scattered = %d", gi, g.BytesScattered)
		}
		if g.LDSBytes != lanes*16 {
			t.Errorf("group %d lds = %d", gi, g.LDSBytes)
		}
		if g.Flops != lanes*7+5 || g.AuxFlops != lanes*3 {
			t.Errorf("group %d flops = %d aux = %d", gi, g.Flops, g.AuxFlops)
		}
		if g.WFMaxFlops != 15 {
			t.Errorf("group %d WFMaxFlops = %d, want 15", gi, g.WFMaxFlops)
		}
	}
}

func TestLaneLoopLDSIsPerGroup(t *testing.T) {
	// Workers reuse one Group for many work-groups: every work-group must
	// start with zeroed local memory and lane state, and see only its own
	// writes.
	d := testDev(t)
	const groups, local, slots = 64, 8, 16
	dirty := d.NewBufferI32("dirty", groups)
	out := d.NewBufferF32("out", groups*local)
	_, err := d.Launch("lds-isolation", func(g *Group) {
		lead := g.Item(0)
		lds := lead.RawLDS()
		state := g.LaneF32(0)
		for k := range lds {
			if lds[k] != 0 {
				lead.StoreGlobalI32(dirty, g.ID(), 1)
			}
		}
		for l := range state {
			if state[l] != 0 {
				lead.StoreGlobalI32(dirty, g.ID(), 2)
			}
		}
		for k := range lds {
			lds[k] = float32(g.ID() + 1)
		}
		for l := range state {
			state[l] = float32(g.ID() + 1)
		}
		g.Barrier()
		for l := 0; l < local; l++ {
			wi := g.Item(l)
			wi.StoreGlobalF32(out, wi.GlobalID(), wi.LoadLDS(l)+state[l])
		}
	}, LaunchParams{Global: groups * local, Local: local, LDSFloats: slots})
	if err != nil {
		t.Fatal(err)
	}
	for gid, v := range dirty.HostI32() {
		if v != 0 {
			t.Errorf("group %d started with dirty state (%d)", gid, v)
		}
	}
	for i, v := range out.HostF32() {
		if want := float32(2 * (i/local + 1)); v != want {
			t.Errorf("item %d saw %g, want %g", i, v, want)
		}
	}
}

func TestLaneLoopAllocsIndependentOfLocalSize(t *testing.T) {
	// A warm launch reuses the Groups of earlier ones, so it allocates no
	// more at Local 256 than at Local 64, and no more than a fixed ceiling:
	// 16 when this was written, while building a Group, its local memory,
	// items and two lane slices per launch made 23.
	const ceiling = 18
	d := testDev(t)
	allocs := func(local int) float64 {
		kernel := func(g *Group) {
			a, b := g.LaneF32(0), g.LaneF32(1)
			for l := 0; l < g.LocalSize(); l++ {
				g.Item(l).Flops(1)
				a[l], b[l] = 1, 2
			}
			g.Barrier()
		}
		p := LaunchParams{Global: 16 * local, Local: local, LDSFloats: 4}
		launch := func() {
			if _, err := d.Launch("allocs", kernel, p); err != nil {
				t.Fatal(err)
			}
		}
		launch() // warm
		return testing.AllocsPerRun(20, launch)
	}
	a64, a256 := allocs(64), allocs(256)
	if a256 > a64 {
		t.Errorf("allocs per launch grew with the work-group size: %v at Local 64, %v at Local 256", a64, a256)
	}
	if a64 > ceiling || a256 > ceiling {
		t.Errorf("a warm launch allocates %v times at Local 64 and %v at Local 256, over the ceiling of %d", a64, a256, ceiling)
	}
}

func TestLaneLoopConcurrentLaunches(t *testing.T) {
	// Four goroutines launch on one Device at once, each rep with another
	// Local, LDSFloats and lane-slice count, so the Groups they reuse come
	// from launches of other shapes. Each work-group must see local memory
	// and lane slices of its own launch's size, zeroed, and each launch
	// must report exactly its own counters.
	d := testDev(t)
	const launches, groups = 4, 32
	var wg sync.WaitGroup
	for i := 0; i < launches; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 8; rep++ {
				shape := (i + rep) % 4
				local, ldsFloats, slices := 4<<shape, 3+5*shape, 1+2*shape
				res, err := d.Launch("concurrent", func(g *Group) {
					lds := g.Item(0).RawLDS()
					if len(lds) != ldsFloats {
						panic(fmt.Sprintf("local memory of %d floats, want %d", len(lds), ldsFloats))
					}
					for k := range lds {
						if lds[k] != 0 {
							panic("dirty LDS at group start")
						}
						lds[k] = float32(i + 1)
					}
					for k := 0; k < slices; k++ {
						s := g.LaneF32(k)
						if len(s) != local {
							panic(fmt.Sprintf("lane slice %d of %d lanes, want %d", k, len(s), local))
						}
						for l := range s {
							if s[l] != 0 {
								panic("dirty lane slice at group start")
							}
							s[l] = float32(i + 1)
						}
					}
					for l := 0; l < local; l++ {
						g.Item(l).Flops(i + 1)
						g.Item(l).ChargeLDS(4)
					}
					g.Barrier()
				}, LaunchParams{Global: groups * local, Local: local, LDSFloats: ldsFloats})
				if err != nil {
					t.Error(err)
					return
				}
				for gi, c := range res.Groups {
					if c.Flops != int64(local*(i+1)) || c.LDSBytes != int64(4*local) || c.Barriers != 1 {
						t.Errorf("launch %d group %d: flops %d lds %d barriers %d", i, gi, c.Flops, c.LDSBytes, c.Barriers)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestLaneLoopPanicBecomesError(t *testing.T) {
	d := testDev(t)
	_, err := d.Launch("lanes", func(g *Group) {
		if g.ID() == 3 {
			panic("boom")
		}
	}, LaunchParams{Global: 64, Local: 8})
	if err == nil || !strings.Contains(err.Error(), "kernel lanes") ||
		!strings.Contains(err.Error(), "work-group 3") || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want one naming the kernel, work-group 3 and the panic", err)
	}

	// Item.Barrier belongs to PerItem bodies only.
	_, err = d.Launch("item-barrier", func(g *Group) { g.Item(0).Barrier() },
		LaunchParams{Global: 8, Local: 8})
	if err == nil || !strings.Contains(err.Error(), "PerItem") {
		t.Fatalf("Item.Barrier in a lane loop: err = %v", err)
	}

	// With one worker groups run in order, so none starts after the panic.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var started atomic.Int32
	_, err = d.Launch("stops", func(g *Group) {
		started.Add(1)
		if g.ID() == 5 {
			panic("stop")
		}
	}, LaunchParams{Global: 8 * 100, Local: 8})
	if err == nil || !strings.Contains(err.Error(), "work-group 5") {
		t.Fatalf("err = %v", err)
	}
	if n := started.Load(); n != 6 {
		t.Errorf("%d work-groups started, want 6 (groups after the panic must not start)", n)
	}
}
