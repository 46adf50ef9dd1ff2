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
// time is the maximum over devices, while the host time is paid once. The
// step ends when the slowest device does, so the executed schedule is that
// device's. Near-linear scaling holds while every device still gets enough
// walks to fill its compute units; the scaling test and bench quantify the
// tail-off.
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
	// shards splits the walks across devices; each device's pass then
	// balances its shard into walk queues.
	shards lpt

	devs []jwDevice
	obs  *obs.Obs
}

// Name implements Plan.
func (p *MultiJW) Name() string { return fmt.Sprintf("jw-parallel x%d", p.Devices) }

// Kind implements Plan.
func (p *MultiJW) Kind() Kind { return KindBH }

// SetHostWorkers caps the goroutines that build the walks' interaction
// lists (0 = GOMAXPROCS, 1 = serial); the tree build is always serial.
func (p *MultiJW) SetHostWorkers(n int) { p.data.builder.Workers = n }

// SetObs implements obs.Observable. Every device queue reports its commands
// into the same bundle, distinguished by kernel names; the plan reports the
// merged evaluation once, so the device passes hold no bundle of their own.
func (p *MultiJW) SetObs(o *obs.Obs) {
	p.obs = o
	p.Opt.Trace = o.Tracer()
	for k := range p.devs {
		p.devs[k].queue.SetObs(o)
	}
}

func (p *MultiJW) init() error {
	if p.Devices <= 0 {
		return fmt.Errorf("core: multi-jw: %d devices", p.Devices)
	}
	if p.devs != nil {
		return nil
	}
	for k := 0; k < p.Devices; k++ {
		ctx, err := cl.NewContext(p.Config)
		if err != nil {
			return err
		}
		dv := jwDevice{
			planBase: newPlanBase(ctx),
			names:    newJWNames(p.Name(), fmt.Sprintf("multijw.force.dev%d", k), "multijw"),
		}
		dv.queue.SetObs(p.obs)
		p.devs = append(p.devs, dv)
	}
	return nil
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

	var rp *RunProfile
	var prof cl.Profile
	var launches []*gpusim.Result
	for k := range p.devs {
		shard := shardWalks[shardDesc[2*k] : shardDesc[2*k]+shardDesc[2*k+1]]
		if len(shard) == 0 {
			continue
		}
		dp, err := p.devs[k].pass(s, d, shard, p.Opt, p.LocalSize, p.QueueTarget, true)
		if err != nil {
			return nil, err
		}
		launches = append(launches, dp.Launches...)
		// Devices run concurrently: the slowest sets the pace.
		prof.KernelSeconds = max(prof.KernelSeconds, dp.Profile.KernelSeconds)
		prof.TransferSeconds = max(prof.TransferSeconds, dp.Profile.TransferSeconds)
		prof.TransferBytes += dp.Profile.TransferBytes
		prof.KernelFlops += dp.Profile.KernelFlops
		// The step ends with the device whose chain ends last (the lowest
		// index on a tie); its schedule is the evaluation's.
		if rp == nil || dp.Schedule.MakespanSeconds() > rp.Schedule.MakespanSeconds() {
			rp = dp
		}
	}
	// Every device queue starts with the same host front; it is paid once.
	prof.HostSeconds = rp.Profile.HostSeconds
	rp.Profile = prof
	rp.Launches = launches
	observeRun(p.obs, rp)
	return rp, nil
}
