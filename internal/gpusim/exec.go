package gpusim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// KernelFunc is the body of a kernel, invoked once per work-group. A
// lane-loop kernel runs its work-items as loops over the lanes of g,
// charging lane l through g.Item(l), and calls g.Barrier() between two
// loops where OpenCL C would call barrier(). Kernels are Go closures over
// their argument buffers and scalars; all device-memory traffic and
// arithmetic must go through the Item accessors so the cost model sees it.
// PerItem adapts a body written for one work-item.
type KernelFunc func(g *Group)

// LaunchParams describes a 1-D NDRange launch.
type LaunchParams struct {
	// Global is the total number of work-items; it must be a positive
	// multiple of Local.
	Global int
	// Local is the work-group size.
	Local int
	// LDSFloats is the number of float32 local-memory slots allocated per
	// work-group (like an OpenCL __local array argument).
	LDSFloats int
}

// Group is the execution context of one work-group. Launch hands each of
// its workers one Group and reuses it for every work-group the worker runs:
// local memory, lane counters, per-lane state and the barrier count are
// reset before each work-group starts. A finished worker's Group goes back
// to its Device for later launches, which reshape it.
type Group struct {
	id         int
	local      int
	globalSize int
	numGroups  int
	lds        []float32
	items      []Item
	// laneF32 holds the lane slices handed out in this launch; slices of
	// earlier launches wait past its length for LaneF32 to reuse them.
	laneF32  [][]float32
	barriers int64
}

// ID returns the work-group id.
func (g *Group) ID() int { return g.id }

// LocalSize returns the work-group size.
func (g *Group) LocalSize() int { return g.local }

// Item returns the context of lane l, through which the kernel charges
// that lane's work.
func (g *Group) Item(l int) *Item { return &g.items[l] }

// LaneF32 returns the group's k-th per-lane float32 slice: LocalSize long,
// zero when the work-group starts. Lane-loop kernels keep the per-lane state
// that lives across a Barrier here.
func (g *Group) LaneF32(k int) []float32 {
	for len(g.laneF32) <= k {
		n := len(g.laneF32)
		if n == cap(g.laneF32) {
			g.laneF32 = append(g.laneF32, nil)
		}
		g.laneF32 = g.laneF32[:n+1]
		g.laneF32[n] = resize(g.laneF32[n], g.local)
		clear(g.laneF32[n])
	}
	return g.laneF32[k]
}

// Barrier marks a work-group barrier, like OpenCL
// barrier(CLK_LOCAL_MEM_FENCE). In a lane loop every lane of the previous
// loop has finished when the next one starts, so Barrier only counts the
// crossing for the cost model.
func (g *Group) Barrier() { g.barriers++ }

// shape prepares a new or reused Group for a launch, growing its arrays
// only when the launch needs more than they hold. reset zeroes them per
// work-group.
func (g *Group) shape(p LaunchParams, numGroups int) {
	g.local, g.globalSize, g.numGroups = p.Local, p.Global, numGroups
	g.lds = resize(g.lds, p.LDSFloats)
	g.items = resize(g.items, p.Local)
	g.laneF32 = g.laneF32[:0]
}

// resize returns s with length n, reallocated only when its capacity is
// short; the contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// reset prepares the Group to run work-group id.
func (g *Group) reset(id int) {
	g.id = id
	g.barriers = 0
	clear(g.lds)
	for _, s := range g.laneF32 {
		clear(s)
	}
	for l := range g.items {
		g.items[l] = Item{g: g, global: id*g.local + l, local: l}
	}
}

// Item is the per-work-item execution context: its ids and the counters
// the cost model charges it.
type Item struct {
	g      *Group
	global int
	local  int
	ln     laneCounters
	// bar is the work-group barrier of a PerItem body, nil in lane loops.
	bar *itemBarrier
}

type laneCounters struct {
	flops          int64 // useful arithmetic (counted toward reported GFLOPS)
	auxFlops       int64 // overhead arithmetic (indexing, loop control)
	bytesCoalesced int64
	bytesScattered int64
	ldsBytes       int64
}

// GlobalID returns the work-item's global id.
func (wi *Item) GlobalID() int { return wi.global }

// LocalID returns the id within the work-group.
func (wi *Item) LocalID() int { return wi.local }

// GroupID returns the work-group id.
func (wi *Item) GroupID() int { return wi.g.id }

// LocalSize returns the work-group size.
func (wi *Item) LocalSize() int { return wi.g.local }

// GlobalSize returns the NDRange size.
func (wi *Item) GlobalSize() int { return wi.g.globalSize }

// NumGroups returns the number of work-groups in the launch.
func (wi *Item) NumGroups() int { return wi.g.numGroups }

// Flops charges n useful floating-point operations to this lane. Useful
// flops are the numerator of reported GFLOPS (38 per body-body interaction
// by the convention in internal/pp).
func (wi *Item) Flops(n int) { wi.ln.flops += int64(n) }

// Aux charges n overhead operations (address arithmetic, loop control,
// reductions) to this lane: they consume ALU issue slots in the cost model
// but are not counted as useful work.
func (wi *Item) Aux(n int) { wi.ln.auxFlops += int64(n) }

// Barrier synchronises the work-group of a PerItem body, like OpenCL
// barrier(CLK_LOCAL_MEM_FENCE). Work-items that have already returned do not
// participate (PerItem retires them), so uniform-exit kernels cannot
// deadlock. Lane-loop kernels call Group.Barrier instead.
func (wi *Item) Barrier() {
	if wi.bar == nil {
		panic("gpusim: Item.Barrier outside a PerItem body (lane loops call Group.Barrier)")
	}
	wi.bar.wait()
}

func (wi *Item) checkF32(b *Buffer, idx int) {
	if b.f == nil {
		panic(fmt.Sprintf("gpusim: float access to int32 buffer %q", b.name))
	}
	if idx < 0 || idx >= len(b.f) {
		panic(fmt.Sprintf("gpusim: buffer %q index %d out of range [0,%d)", b.name, idx, len(b.f)))
	}
}

func (wi *Item) checkI32(b *Buffer, idx int) {
	if b.i == nil {
		panic(fmt.Sprintf("gpusim: int access to float32 buffer %q", b.name))
	}
	if idx < 0 || idx >= len(b.i) {
		panic(fmt.Sprintf("gpusim: buffer %q index %d out of range [0,%d)", b.name, idx, len(b.i)))
	}
}

// LoadGlobalF32 reads a float32 from global memory with a coalesced access
// pattern (consecutive lanes reading consecutive addresses).
func (wi *Item) LoadGlobalF32(b *Buffer, idx int) float32 {
	wi.checkF32(b, idx)
	wi.ln.bytesCoalesced += 4
	return b.f[idx]
}

// StoreGlobalF32 writes a float32 to global memory (coalesced).
func (wi *Item) StoreGlobalF32(b *Buffer, idx int, v float32) {
	wi.checkF32(b, idx)
	wi.ln.bytesCoalesced += 4
	b.f[idx] = v
}

// LoadGlobalI32 reads an int32 from global memory (coalesced).
func (wi *Item) LoadGlobalI32(b *Buffer, idx int) int32 {
	wi.checkI32(b, idx)
	wi.ln.bytesCoalesced += 4
	return b.i[idx]
}

// StoreGlobalI32 writes an int32 to global memory (coalesced).
func (wi *Item) StoreGlobalI32(b *Buffer, idx int, v int32) {
	wi.checkI32(b, idx)
	wi.ln.bytesCoalesced += 4
	b.i[idx] = v
}

// LoadLDS reads local memory slot idx.
func (wi *Item) LoadLDS(idx int) float32 {
	wi.ln.ldsBytes += 4
	return wi.g.lds[idx]
}

// StoreLDS writes local memory slot idx. Data races between work-items are
// the kernel's responsibility, exactly as on hardware; use Barrier.
func (wi *Item) StoreLDS(idx int, v float32) {
	wi.ln.ldsBytes += 4
	wi.g.lds[idx] = v
}

// RawGlobalF32 exposes a buffer's backing store without charging any
// traffic. It exists so hot inner loops can run at native speed; the kernel
// MUST charge the equivalent traffic explicitly with ChargeGlobal (tests in
// this package and in internal/core verify the totals).
func (wi *Item) RawGlobalF32(b *Buffer) []float32 { return b.HostF32() }

// RawGlobalI32 is RawGlobalF32 for int32 buffers.
func (wi *Item) RawGlobalI32(b *Buffer) []int32 { return b.HostI32() }

// RawLDS exposes the group's local memory without charging traffic; pair
// with ChargeLDS.
func (wi *Item) RawLDS() []float32 { return wi.g.lds }

// ChargeGlobal charges coalesced and scattered global-memory bytes in bulk.
func (wi *Item) ChargeGlobal(coalescedBytes, scatteredBytes int) {
	wi.ln.bytesCoalesced += int64(coalescedBytes)
	wi.ln.bytesScattered += int64(scatteredBytes)
}

// ChargeLDS charges local-memory bytes in bulk.
func (wi *Item) ChargeLDS(bytes int) { wi.ln.ldsBytes += int64(bytes) }

// GroupCost aggregates the counted work of one work-group, the input to the
// cost model.
type GroupCost struct {
	// WFMaxFlops is, summed over the group's wavefronts, the maximum
	// per-lane issue count (useful + aux flops) — the SIMD execution time a
	// divergent wavefront actually pays.
	WFMaxFlops int64
	// Flops is the total useful arithmetic across all lanes.
	Flops int64
	// AuxFlops is the total overhead arithmetic across all lanes.
	AuxFlops       int64
	BytesCoalesced int64
	BytesScattered int64
	LDSBytes       int64
	Barriers       int64
}

// Result reports a completed launch.
type Result struct {
	Kernel string
	Params LaunchParams
	Groups []GroupCost
	Timing Timing
}

// TotalFlops returns the useful arithmetic of the launch.
func (r *Result) TotalFlops() int64 {
	var f int64
	for i := range r.Groups {
		f += r.Groups[i].Flops
	}
	return f
}

// TotalAuxFlops returns the overhead arithmetic (indexing, loop control,
// reductions) of the launch.
func (r *Result) TotalAuxFlops() int64 {
	var f int64
	for i := range r.Groups {
		f += r.Groups[i].AuxFlops
	}
	return f
}

// TotalBytes returns the global-memory traffic of the launch, split into
// coalesced and scattered bytes — the denominator of the launch's arithmetic
// intensity in a roofline analysis.
func (r *Result) TotalBytes() (coalesced, scattered int64) {
	for i := range r.Groups {
		coalesced += r.Groups[i].BytesCoalesced
		scattered += r.Groups[i].BytesScattered
	}
	return coalesced, scattered
}

// Launch executes the kernel over the NDRange and returns its counted work
// and modelled timing. Execution is functionally exact: every work-group
// runs, and buffer contents after Launch are the kernel's true output.
// Work-groups run on at most GOMAXPROCS workers, the caller being worker 0;
// each worker takes an idle Group from the Device (or makes one), claims
// group ids in turn, runs them all on that Group and returns it to the
// Device when the launch has no group left. A panic inside
// the kernel (including buffer overruns) is converted into an error naming
// the kernel and work-group, and no work-group starts after it.
func (d *Device) Launch(name string, fn KernelFunc, p LaunchParams) (*Result, error) {
	if p.Local <= 0 {
		return nil, fmt.Errorf("gpusim: kernel %s: non-positive local size %d", name, p.Local)
	}
	if p.Global <= 0 || p.Global%p.Local != 0 {
		return nil, fmt.Errorf("gpusim: kernel %s: global size %d not a positive multiple of local %d",
			name, p.Global, p.Local)
	}
	if p.LDSFloats < 0 || p.LDSFloats > d.Config.LDSPerCU/4 {
		return nil, fmt.Errorf("gpusim: kernel %s: LDS request of %d floats outside [0, %d] (%d bytes per CU)",
			name, p.LDSFloats, d.Config.LDSPerCU/4, d.Config.LDSPerCU)
	}
	numGroups := p.Global / p.Local
	res := &Result{Kernel: name, Params: p, Groups: make([]GroupCost, numGroups)}

	var (
		next   atomic.Int64
		failed atomic.Bool
		errMu  sync.Mutex
		errGID = numGroups
		err    error
	)
	work := func() {
		g := d.takeGroup(p, numGroups)
		defer d.putGroup(g)
		for !failed.Load() {
			gid := int(next.Add(1) - 1)
			if gid >= numGroups {
				return
			}
			if gerr := runGroup(name, fn, g, gid); gerr != nil {
				failed.Store(true)
				errMu.Lock()
				if gid < errGID {
					errGID, err = gid, gerr
				}
				errMu.Unlock()
				return
			}
			d.account(g, &res.Groups[gid])
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(runtime.GOMAXPROCS(0), numGroups); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()

	if err != nil {
		return nil, err
	}
	res.Timing = d.cost(res)
	return res, nil
}

// takeGroup returns an idle Group of d, or a new one, shaped for a launch.
func (d *Device) takeGroup(p LaunchParams, numGroups int) *Group {
	var g *Group
	d.idleMu.Lock()
	if n := len(d.idle); n > 0 {
		g, d.idle = d.idle[n-1], d.idle[:n-1]
	}
	d.idleMu.Unlock()
	if g == nil {
		g = new(Group)
	}
	g.shape(p, numGroups)
	return g
}

// putGroup returns a finished worker's Group to d for later launches.
func (d *Device) putGroup(g *Group) {
	d.idleMu.Lock()
	d.idle = append(d.idle, g)
	d.idleMu.Unlock()
}

// runGroup runs work-group gid on g, converting a kernel panic into an
// error.
func runGroup(name string, fn KernelFunc, g *Group, gid int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("gpusim: kernel %s: work-group %d panicked: %v", name, gid, r)
		}
	}()
	g.reset(gid)
	fn(g)
	return nil
}

// account folds the lane counters of the group g just ran into its cost.
func (d *Device) account(g *Group, cost *GroupCost) {
	wf := d.Config.WavefrontSize
	for base := 0; base < g.local; base += wf {
		var maxOps int64
		for l := base; l < min(base+wf, g.local); l++ {
			if ops := g.items[l].ln.flops + g.items[l].ln.auxFlops; ops > maxOps {
				maxOps = ops
			}
		}
		cost.WFMaxFlops += maxOps
	}
	for l := range g.items {
		ln := &g.items[l].ln
		cost.Flops += ln.flops
		cost.AuxFlops += ln.auxFlops
		cost.BytesCoalesced += ln.bytesCoalesced
		cost.BytesScattered += ln.bytesScattered
		cost.LDSBytes += ln.ldsBytes
	}
	cost.Barriers = g.barriers
}
