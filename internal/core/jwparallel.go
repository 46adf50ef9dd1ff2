package core

import (
	"fmt"

	"repro/internal/bh"
	"repro/internal/body"
	"repro/internal/gpusim"
	"repro/internal/obs"
)

// JWParallel is the paper's plan: the jw-parallel mapping derived from the
// parallel time-space processing model. It keeps w-parallel's walk
// decomposition (CPU builds the tree and the shared interaction lists; the
// GPU evaluates forces) and fixes its two structural costs by applying the
// j-parallel idea *inside* each walk:
//
//   - The walk's interaction list is consumed in tiles: all lanes of the
//     work-group cooperatively stage one tile (coalesced index load +
//     gathered source float4 -> local memory), then every lane evaluates the
//     whole tile for its own body out of local memory. Global traffic per
//     list entry drops from bodies x 20 bytes to 20 bytes.
//
//   - Work-groups are decoupled from walks: each group drains a host-built
//     *queue* of walks, balanced by a longest-processing-time heuristic, so
//     group count (and with it occupancy) is chosen to fill the device and
//     short walks no longer pay a whole group launch each.
//
// Per the paper's Section 4.3, with a single walk covering all bodies the
// plan degenerates to the PP j-parallel scheme, which is why the paper names
// it jw-parallel.
type JWParallel struct {
	Opt bh.Options
	// GroupCap is the maximum bodies per walk (default 24; the jw group-size
	// ablation sweeps it).
	GroupCap int
	// LocalSize is the work-group size (default 64).
	LocalSize int
	// QueueTarget is the number of work-groups (walk queues) to create; 0
	// selects ComputeUnits x MaxGroupsPerCU, enough to fill the device.
	QueueTarget int
	// DisableLDSStaging reverts the list handling to w-parallel's per-lane
	// streaming while keeping the queueing — the ablation showing where the
	// speedup comes from.
	DisableLDSStaging bool

	// jwDevice runs the plan's one device pass, over every walk.
	jwDevice

	// data is the pooled host-side product of the build; steps 2..K reuse
	// its arenas.
	data bhHostData
}

// Name implements Plan.
func (p *JWParallel) Name() string { return "jw-parallel" }

// SetObs implements obs.Observable: spans cover the whole pipeline (tree
// build, walk construction, uploads, kernel, download) and the registry
// receives the per-step breakdown.
func (p *JWParallel) SetObs(o *obs.Obs) {
	p.setObs(o)
	p.Opt.Trace = o.Tracer()
}

// Kind implements Plan.
func (p *JWParallel) Kind() Kind { return KindBH }

// SetHostWorkers caps the goroutines that build the walks' interaction
// lists (0 = GOMAXPROCS, 1 = serial); the tree build is always serial.
func (p *JWParallel) SetHostWorkers(n int) { p.data.builder.Workers = n }

// Accel implements Plan.
func (p *JWParallel) Accel(s *body.System) (*RunProfile, error) {
	n := s.N()
	if n == 0 {
		return nil, fmt.Errorf("core: jw-parallel: empty system")
	}
	sp := p.obs.Start("accel", "plan").Track(p.Name()).Arg("n", n)
	defer sp.End()
	if err := p.data.build(s, p.Opt, p.GroupCap, p.LocalSize); err != nil {
		return nil, err
	}
	observeBHData(p.obs, &p.data)
	return p.pass(s, &p.data, nil, p.Opt, p.LocalSize, p.QueueTarget, !p.DisableLDSStaging)
}

// jwNames are the names one jw device pass gives its profile, its kernel
// launch and its device buffers, built once per device so a pass allocates
// none.
type jwNames struct {
	plan, kernel                               string
	src, posm, lists, desc, qwalks, qdesc, acc string
}

// newJWNames names a device's profile and kernel, and its buffers
// "<prefix>.src", "<prefix>.posm", ...
func newJWNames(plan, kernel, prefix string) jwNames {
	return jwNames{
		plan: plan, kernel: kernel,
		src: prefix + ".src", posm: prefix + ".posm", lists: prefix + ".lists", desc: prefix + ".desc",
		qwalks: prefix + ".qwalks", qdesc: prefix + ".qdesc", acc: prefix + ".acc",
	}
}

// jwDevice is one device's side of the jw-parallel plan: its queue, its
// grow-only buffers and its walk-queue balancer. JWParallel runs one pass
// over every walk; MultiJW runs one per device over that device's shard.
type jwDevice struct {
	planBase
	names   jwNames
	queues  lpt
	bufs    jwBuffers
	hostAcc []float32
}

// pass evaluates the given walks of d (nil: every walk) on the device. It
// LPT-balances them into walk queues, enqueues the treecode host front
// (tree, list), the six uploads (walk data plus the queue tables), the
// queue-draining kernel and the download, and writes the accelerations of
// those walks' bodies into s.Acc.
func (dv *jwDevice) pass(s *body.System, d *bhHostData, walks []int32, opt bh.Options, localSize, queueTarget int, staged bool) (*RunProfile, error) {
	n := s.N()
	count := d.numWalks
	if walks != nil {
		count = len(walks)
	}
	numQueues := queueCount(dv.ctx.Device().Config, queueTarget, count)
	queueWalks, queueDesc := dv.queues.balance(d, walks, numQueues)

	nm, b := &dv.names, &dv.bufs
	dv.ensure(nm.src, &b.src, len(d.srcF4), true)
	dv.ensure(nm.posm, &b.pos, len(d.posmSorted), true)
	dv.ensure(nm.lists, &b.lists, len(d.lists), false)
	dv.ensure(nm.desc, &b.desc, len(d.desc), false)
	dv.ensure(nm.qwalks, &b.queueWalks, len(queueWalks), false)
	dv.ensure(nm.qdesc, &b.queueDesc, len(queueDesc), false)
	dv.ensure(nm.acc, &b.acc, 4*n, true)
	dv.hostAcc = resize(dv.hostAcc, 4*n)

	lds := 0
	if staged {
		lds = 4 * localSize
	}
	dv.begin()
	dv.hostFront(d)
	dv.writeF32(b.src, d.srcF4)
	dv.writeF32(b.pos, d.posmSorted)
	dv.writeI32(b.lists, d.lists)
	dv.writeI32(b.desc, d.desc)
	dv.writeI32(b.queueWalks, queueWalks)
	dv.writeI32(b.queueDesc, queueDesc)
	dv.launch(nm.kernel, jwKernel(*b, opt.G, opt.Eps*opt.Eps, staged), gpusim.LaunchParams{
		Global:    numQueues * localSize,
		Local:     localSize,
		LDSFloats: lds,
	})
	dv.readF32(b.acc, dv.hostAcc)
	rp, err := dv.finish(nm.plan, n, d.interactions, d.wallSeconds)
	if err != nil {
		return nil, err
	}
	// Scatter the walks' slots from tree order back to body order; walks
	// own disjoint slots, so devices never overwrite each other.
	for _, w := range queueWalks {
		first := int(d.desc[w*bhDescStride+0])
		count := int(d.desc[w*bhDescStride+1])
		for slot := first; slot < first+count; slot++ {
			bi := d.tree.Index[slot]
			s.Acc[bi].X = dv.hostAcc[4*slot+0]
			s.Acc[bi].Y = dv.hostAcc[4*slot+1]
			s.Acc[bi].Z = dv.hostAcc[4*slot+2]
		}
	}
	return rp, nil
}
