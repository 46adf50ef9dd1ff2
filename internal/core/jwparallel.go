package core

import (
	"fmt"

	"repro/internal/bh"
	"repro/internal/body"
	"repro/internal/gpusim"
	"repro/internal/obs"
	"repro/internal/pipeline"
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

	planBase

	// data is the pooled host-side product of the build; steps 2..K reuse
	// its arenas.
	data bhHostData
	// queues is the pooled scratch of the walk-queue balancing.
	queues lpt

	bufSrc, bufPos, bufLists, bufDesc *gpusim.Buffer
	bufQueueWalks, bufQueueDesc       *gpusim.Buffer
	bufAcc                            *gpusim.Buffer
	hostAcc                           []float32
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

// SetHostWorkers caps the host-side build parallelism (0 = GOMAXPROCS, 1 =
// serial).
func (p *JWParallel) SetHostWorkers(n int) { p.data.builder.Workers = n }

// graph builds the plan's stage graph: the treecode host front (tree, list),
// the six uploads (walk data plus the balanced queue tables), the
// queue-draining kernel, and the download.
func (p *JWParallel) graph(d *bhHostData, queueWalks, queueDesc []int32, numQueues int) *pipeline.Graph {
	staged := !p.DisableLDSStaging
	kernel := jwKernel(jwBuffers{
		src: p.bufSrc, pos: p.bufPos, lists: p.bufLists, desc: p.bufDesc,
		queueWalks: p.bufQueueWalks, queueDesc: p.bufQueueDesc, acc: p.bufAcc,
	}, p.Opt.G, p.Opt.Eps*p.Opt.Eps, staged)
	lds := 0
	if staged {
		lds = 4 * p.LocalSize
	}

	g := pipeline.NewGraph(p.Name())
	for _, st := range bhFrontStages(d) {
		g.Add(st)
	}
	return g.
		Add(stageUploadF32("upload:src", p.bufSrc, d.srcF4, "list")).
		Add(stageUploadF32("upload:posm", p.bufPos, d.posmSorted, "list")).
		Add(stageUploadI32("upload:lists", p.bufLists, d.lists, "list")).
		Add(stageUploadI32("upload:desc", p.bufDesc, d.desc, "list")).
		Add(stageUploadI32("upload:qwalks", p.bufQueueWalks, queueWalks, "list")).
		Add(stageUploadI32("upload:qdesc", p.bufQueueDesc, queueDesc, "list")).
		Add(stageKernel("force", "jwparallel.force", kernel, gpusim.LaunchParams{
			Global:    numQueues * p.LocalSize,
			Local:     p.LocalSize,
			LDSFloats: lds,
		}, "upload:src", "upload:posm", "upload:lists", "upload:desc", "upload:qwalks", "upload:qdesc")).
		Add(stageDownloadF32("download:acc", p.bufAcc, p.hostAcc, "force"))
}

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
	d := &p.data
	observeBHData(p.obs, d)
	numQueues := queueCount(p.ctx.Device().Config, p.QueueTarget, d.numWalks)
	queueWalks, queueDesc := p.queues.balance(d, nil, numQueues)

	p.ensure("jwparallel.src", &p.bufSrc, len(d.srcF4), true)
	p.ensure("jwparallel.posm", &p.bufPos, len(d.posmSorted), true)
	p.ensure("jwparallel.lists", &p.bufLists, len(d.lists), false)
	p.ensure("jwparallel.desc", &p.bufDesc, len(d.desc), false)
	p.ensure("jwparallel.qwalks", &p.bufQueueWalks, len(queueWalks), false)
	p.ensure("jwparallel.qdesc", &p.bufQueueDesc, len(queueDesc), false)
	p.ensure("jwparallel.acc", &p.bufAcc, 4*n, true)
	p.hostAcc = resize(p.hostAcc, 4*n)

	rp, err := p.run(p.graph(d, queueWalks, queueDesc, numQueues), p.Name(), n, d.interactions)
	if err != nil {
		return nil, err
	}
	rp.HostBuildSeconds = d.wallSeconds
	if rp.Schedule != nil {
		rp.Schedule.HostWallSeconds = d.wallSeconds
	}
	d.unpermuteAcc(s, p.hostAcc)
	return rp, nil
}
