package core

import (
	"fmt"

	"repro/internal/bh"
	"repro/internal/body"
	"repro/internal/cl"
	"repro/internal/gpusim"
	"repro/internal/obs"
)

// MultiJW extends the paper's jw-parallel plan to several GPUs — the
// natural scale-out the multiple-walk literature (Hamada et al., SC'09)
// runs in production. The host half of the pipeline is unchanged and
// executes once: one octree, one set of group walks. The *walks* are then
// partitioned across the devices with the same longest-processing-time
// heuristic used for intra-device queues; every device receives the full
// source data (tree cells + bodies, needed because any walk may interact
// with any cell) but only its shard of walk queues, computes accelerations
// for its shard's bodies, and the host merges the disjoint results.
//
// Timing: devices run concurrently, so the plan's kernel (and transfer)
// time is the maximum over devices, while the host time is paid once.
// Near-linear scaling holds while every device still gets enough walks to
// fill its compute units; the scaling test and bench quantify the tail-off.
type MultiJW struct {
	Opt bh.Options
	// Devices is the number of simulated GPUs (contexts are created from
	// Config on first use).
	Devices int
	// Config is the per-device configuration (HD5850 by default).
	Config gpusim.DeviceConfig
	// GroupCap, LocalSize, QueueTarget as in JWParallel, applied per device.
	GroupCap    int
	LocalSize   int
	QueueTarget int

	// data is the pooled host-side product of the build; steps 2..K reuse
	// its arenas.
	data bhHostData
	// shards splits the walks across devices; queues then balances one
	// shard into its device's walk queues.
	shards, queues lpt

	ctxs []*cl.Context
	devs []*deviceState
	obs  *obs.Obs
}

// deviceState holds one device's queue and buffers.
type deviceState struct {
	queue *cl.Queue
	bufs  jwBuffers
	host  []float32
}

// Name implements Plan.
func (p *MultiJW) Name() string { return fmt.Sprintf("jw-parallel x%d", p.Devices) }

// Kind implements Plan.
func (p *MultiJW) Kind() Kind { return KindBH }

// SetHostWorkers caps the host-side build parallelism (0 = GOMAXPROCS, 1 =
// serial).
func (p *MultiJW) SetHostWorkers(n int) { p.data.builder.Workers = n }

// SetObs implements obs.Observable. Every device queue reports into the
// same bundle; per-device spans are distinguished by command names.
func (p *MultiJW) SetObs(o *obs.Obs) {
	p.obs = o
	p.Opt.Trace = o.Tracer()
	for _, ds := range p.devs {
		ds.queue.SetObs(o)
	}
}

func (p *MultiJW) init() error {
	if p.Devices <= 0 {
		return fmt.Errorf("core: multi-jw: %d devices", p.Devices)
	}
	if p.ctxs != nil {
		return nil
	}
	for i := 0; i < p.Devices; i++ {
		ctx, err := cl.NewContext(p.Config)
		if err != nil {
			return err
		}
		p.ctxs = append(p.ctxs, ctx)
		ds := &deviceState{queue: ctx.NewQueue()}
		ds.queue.SetObs(p.obs)
		p.devs = append(p.devs, ds)
	}
	return nil
}

// ensure sizes (or resizes) one device's buffers.
func (ds *deviceState) ensure(dev *gpusim.Device, d *bhHostData, qw, qd []int32, n int) {
	ensureBuffer(dev, "multijw.src", &ds.bufs.src, len(d.srcF4), true)
	ensureBuffer(dev, "multijw.posm", &ds.bufs.pos, len(d.posmSorted), true)
	ensureBuffer(dev, "multijw.lists", &ds.bufs.lists, len(d.lists), false)
	ensureBuffer(dev, "multijw.desc", &ds.bufs.desc, len(d.desc), false)
	ensureBuffer(dev, "multijw.qwalks", &ds.bufs.queueWalks, len(qw), false)
	ensureBuffer(dev, "multijw.qdesc", &ds.bufs.queueDesc, len(qd), false)
	ensureBuffer(dev, "multijw.acc", &ds.bufs.acc, 4*n, true)
	ds.host = resize(ds.host, 4*n)
}

// Accel implements Plan.
func (p *MultiJW) Accel(s *body.System) (*RunProfile, error) {
	n := s.N()
	if n == 0 {
		return nil, fmt.Errorf("core: multi-jw: empty system")
	}
	if err := p.init(); err != nil {
		return nil, err
	}
	sp := p.obs.Start("accel", "plan").Track(p.Name()).Arg("n", n).Arg("devices", p.Devices)
	defer sp.End()
	if err := p.data.build(s, p.Opt, p.GroupCap, p.LocalSize); err != nil {
		return nil, err
	}
	d := &p.data
	observeBHData(p.obs, d)
	shardWalks, shardDesc := p.shards.balance(d, nil, p.Devices)

	prof := cl.Profile{HostSeconds: d.treeSeconds + d.listSeconds}
	var launches []*gpusim.Result
	var maxKernel, maxTransfer float64

	for k, ds := range p.devs {
		shard := shardWalks[shardDesc[2*k] : shardDesc[2*k]+shardDesc[2*k+1]]
		if len(shard) == 0 {
			continue
		}
		numQueues := queueCount(p.Config, p.QueueTarget, len(shard))
		qw, qd := p.queues.balance(d, shard, numQueues)
		ds.ensure(p.ctxs[k].Device(), d, qw, qd, n)

		q := ds.queue
		q.Reset()
		if _, err := q.EnqueueWriteF32(ds.bufs.src, d.srcF4); err != nil {
			return nil, err
		}
		if _, err := q.EnqueueWriteF32(ds.bufs.pos, d.posmSorted); err != nil {
			return nil, err
		}
		if _, err := q.EnqueueWriteI32(ds.bufs.lists, d.lists); err != nil {
			return nil, err
		}
		if _, err := q.EnqueueWriteI32(ds.bufs.desc, d.desc); err != nil {
			return nil, err
		}
		if _, err := q.EnqueueWriteI32(ds.bufs.queueWalks, qw); err != nil {
			return nil, err
		}
		if _, err := q.EnqueueWriteI32(ds.bufs.queueDesc, qd); err != nil {
			return nil, err
		}

		kernel := jwKernel(ds.bufs, p.Opt.G, p.Opt.Eps*p.Opt.Eps, true)
		ev, err := q.EnqueueNDRange(fmt.Sprintf("multijw.force.dev%d", k), kernel, gpusim.LaunchParams{
			Global:    numQueues * p.LocalSize,
			Local:     p.LocalSize,
			LDSFloats: 4 * p.LocalSize,
		})
		if err != nil {
			return nil, err
		}
		if _, err := q.EnqueueReadF32(ds.bufs.acc, ds.host); err != nil {
			return nil, err
		}
		launches = append(launches, ev.Result)

		// Merge this shard's slots into the host result via the walk
		// descriptors (slots are disjoint across walks).
		for _, wid := range shard {
			first := int(d.desc[wid*bhDescStride+0])
			count := int(d.desc[wid*bhDescStride+1])
			for slot := first; slot < first+count; slot++ {
				bi := d.tree.Index[slot]
				s.Acc[bi].X = ds.host[4*slot+0]
				s.Acc[bi].Y = ds.host[4*slot+1]
				s.Acc[bi].Z = ds.host[4*slot+2]
			}
		}

		dp := q.Profile()
		if dp.KernelSeconds > maxKernel {
			maxKernel = dp.KernelSeconds
		}
		if dp.TransferSeconds > maxTransfer {
			maxTransfer = dp.TransferSeconds
		}
		prof.TransferBytes += dp.TransferBytes
		prof.KernelFlops += dp.KernelFlops
	}
	// Devices run concurrently: the slowest sets the pace.
	prof.KernelSeconds = maxKernel
	prof.TransferSeconds = maxTransfer

	rp := &RunProfile{
		Plan:             p.Name(),
		N:                n,
		Interactions:     d.interactions,
		Flops:            interactionFlops(d.interactions),
		Profile:          prof,
		Launches:         launches,
		HostBuildSeconds: d.wallSeconds,
	}
	observeRun(p.obs, rp)
	return rp, nil
}
