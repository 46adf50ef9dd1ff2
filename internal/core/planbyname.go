package core

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/bh"
	"repro/internal/cl"
	"repro/internal/gpusim"
	"repro/internal/obs"
	"repro/internal/pp"
)

// planOptions collects everything a plan constructor can be configured
// with. The per-plan constructors each took a different subset positionally;
// NewPlanByName replaces them with one option list whose unset fields mean
// "the plan's documented default".
type planOptions struct {
	clCtx  *cl.Context
	device gpusim.DeviceConfig
	params pp.Params
	opt    bh.Options

	obs *obs.Obs

	groupCap    int
	localSize   int
	queueTarget int
}

// PlanOption configures NewPlanByName.
type PlanOption func(*planOptions)

// WithDevice selects the modelled device the plan creates its context on
// (default gpusim.HD5850, the paper's card). Ignored when WithCLContext
// supplies a context, except by multi-device plans, which always create
// their own contexts from the device config.
func WithDevice(cfg gpusim.DeviceConfig) PlanOption {
	return func(o *planOptions) { o.device = cfg }
}

// WithCLContext reuses an existing context instead of creating one, so the
// caller holds the context its plans run on and plans given the same context
// share one modelled device.
func WithCLContext(ctx *cl.Context) PlanOption {
	return func(o *planOptions) { o.clCtx = ctx }
}

// WithPPParams sets the gravity parameters of the PP plans (default
// pp.DefaultParams).
func WithPPParams(p pp.Params) PlanOption {
	return func(o *planOptions) { o.params = p }
}

// WithBHOptions sets the treecode options of the BH plans (default
// bh.DefaultOptions).
func WithBHOptions(opt bh.Options) PlanOption {
	return func(o *planOptions) { o.opt = opt }
}

// WithObs wires a telemetry bundle into the plan at construction, replacing
// the ad-hoc post-construction SetObs dance.
func WithObs(o *obs.Obs) PlanOption {
	return func(po *planOptions) { po.obs = o }
}

// WithTuning overrides the plan's decomposition parameters; zero values keep
// the plan's defaults. groupCap is the walk size of the BH plans,
// localSize the work-group size of every plan, queueTarget the jw walk-queue
// count (0 fills the device).
func WithTuning(groupCap, localSize, queueTarget int) PlanOption {
	return func(o *planOptions) {
		o.groupCap = groupCap
		o.localSize = localSize
		o.queueTarget = queueTarget
	}
}

// maxDevices caps K in "jw-parallel-xK". Each device is a cl context with
// its own buffers, created on the plan's first evaluation, and sharding the
// walks costs O(walks x K).
const maxDevices = 64

// PlanNames lists every name NewPlanByName accepts, in the paper's
// presentation order. Multi-device variants follow the pattern
// "jw-parallel-xK" for any 2 <= K <= 64; the list shows the two tracked ones.
func PlanNames() []string {
	return []string{
		"i-parallel", "j-parallel", "w-parallel", "jw-parallel",
		"jw-parallel-x2", "jw-parallel-x4",
		"i-parallel-src", "j-parallel-src",
	}
}

// CheckPlanName returns the error NewPlanByName gives for name, or nil when
// it accepts the name, without building anything. It is the one home of the
// plan-name grammar: the names of PlanNames, plus "jw-parallel-xK" for any
// 2 <= K <= 64 written in plain decimal, so each plan has one spelling (the
// serve pool caches engines under the raw name).
func CheckPlanName(name string) error {
	if ks, ok := strings.CutPrefix(name, "jw-parallel-x"); ok {
		if k, err := strconv.Atoi(ks); err != nil || ks != strconv.Itoa(k) || k < 2 || k > maxDevices {
			return fmt.Errorf("core: bad multi-device plan %q (want jw-parallel-xK, K in plain decimal, 2 <= K <= %d)", name, maxDevices)
		}
		return nil
	}
	if !slices.Contains(PlanNames(), name) {
		return fmt.Errorf("core: unknown plan %q (known: %s)", name, strings.Join(PlanNames(), ", "))
	}
	return nil
}

// NewPlanByName constructs the named execution plan. It is the one way to
// build a plan: the CLIs, the job service, the experiment harness and the
// tests all come through here.
//
// Names: the four paper plans ("i-parallel", "j-parallel", "w-parallel",
// "jw-parallel"), the multi-device scale-out ("jw-parallel-xK",
// 2 <= K <= 64), and the OpenCL-C-source PP variants ("i-parallel-src",
// "j-parallel-src") that run through the clc compiler.
//
// Defaults, each overridable through WithTuning: i-parallel groups of 256
// and j-parallel groups of 64 (one wavefront); w-parallel walks of up to 64
// bodies on 64-lane groups; jw-parallel (and each device of jw-parallel-xK)
// walks of up to 24 bodies on 64-lane groups, with enough walk queues to
// fill the device.
func NewPlanByName(name string, opts ...PlanOption) (Plan, error) {
	if err := CheckPlanName(name); err != nil {
		return nil, err
	}
	o := planOptions{
		device: gpusim.HD5850(),
		params: pp.DefaultParams(),
		opt:    bh.DefaultOptions(),
	}
	for _, fn := range opts {
		fn(&o)
	}
	ctx := func() (*cl.Context, error) {
		if o.clCtx != nil {
			return o.clCtx, nil
		}
		return cl.NewContext(o.device)
	}
	// tuned returns the WithTuning override when one was given, def
	// otherwise.
	tuned := func(v, def int) int {
		if v > 0 {
			return v
		}
		return def
	}

	var plan Plan
	switch name {
	case "i-parallel", "j-parallel", "w-parallel", "jw-parallel":
		c, err := ctx()
		if err != nil {
			return nil, err
		}
		base := newPlanBase(c)
		switch name {
		case "i-parallel":
			plan = &IParallel{Params: o.params, GroupSize: tuned(o.localSize, 256), planBase: base}
		case "j-parallel":
			plan = &JParallel{Params: o.params, GroupSize: tuned(o.localSize, 64), planBase: base}
		case "w-parallel":
			plan = &WParallel{Opt: o.opt, GroupCap: tuned(o.groupCap, 64), LocalSize: tuned(o.localSize, 64), planBase: base}
		default:
			plan = &JWParallel{Opt: o.opt, GroupCap: tuned(o.groupCap, 24), LocalSize: tuned(o.localSize, 64),
				QueueTarget: tuned(o.queueTarget, 0),
				jwDevice:    jwDevice{planBase: base, names: newJWNames(name, "jwparallel.force", "jwparallel")}}
		}
	case "i-parallel-src", "j-parallel-src":
		c, err := ctx()
		if err != nil {
			return nil, err
		}
		variant := "iparallel"
		if name == "j-parallel-src" {
			variant = "jparallel"
		}
		p, err := newCLPlanPP(c, o.params, variant)
		if err != nil {
			return nil, err
		}
		p.GroupSize = tuned(o.localSize, p.GroupSize)
		plan = p
	default: // jw-parallel-xK; CheckPlanName vetted K
		k, _ := strconv.Atoi(strings.TrimPrefix(name, "jw-parallel-x"))
		plan = &MultiJW{Opt: o.opt, Devices: k, Config: o.device, GroupCap: tuned(o.groupCap, 24),
			LocalSize: tuned(o.localSize, 64), QueueTarget: tuned(o.queueTarget, 0)}
	}
	if o.obs != nil {
		if ob, ok := plan.(obs.Observable); ok {
			ob.SetObs(o.obs)
		}
	}
	return plan, nil
}

// NewEngineByName builds the named plan and wraps it in an Engine, carrying
// the telemetry bundle through to both.
func NewEngineByName(name string, opts ...PlanOption) (*Engine, error) {
	var o planOptions
	for _, fn := range opts {
		fn(&o)
	}
	plan, err := NewPlanByName(name, opts...)
	if err != nil {
		return nil, err
	}
	eng := NewEngine(plan)
	if o.obs != nil {
		eng.SetObs(o.obs)
	}
	return eng, nil
}
