// Package cliflags defines the command-line flags shared by every binary in
// this module — nbody, bench, experiments, ptpm, kernelcheck and nbodyd —
// so that -plan, -n, -device, -kernel-check and -pipeline mean the same
// thing, accept the same values, and fail with the same messages everywhere.
//
// Before this package each command declared its own copies, and they had
// drifted: nbody called the plan flag -engine, bench parsed device names in
// a private switch, experiments had no kernel gate at all, and size lists
// were split in two slightly different ways. A flag added here is defined
// once and picked up by every command that registers it.
//
// The typed flags validate at parse time (flag.Value.Set), so a bad value
// fails with the standard flag-package usage message instead of a mid-run
// error.
package cliflags

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/body"
	"repro/internal/gpusim"
	"repro/internal/ic"
	"repro/internal/integrate"
	"repro/internal/pipeline"
	"repro/internal/sim"
)

// Plan registers the canonical -plan flag with the given default, plus any
// aliases (nbody keeps -engine as a deprecated alias) bound to the same
// value, and returns the shared value.
func Plan(fs *flag.FlagSet, def string, aliases ...string) *string {
	p := new(string)
	*p = def
	const usage = "execution plan / force engine (GPU: i-parallel, j-parallel, w-parallel, jw-parallel, jw-parallel-xK; CPU: cpu-pp, cpu-bh, cpu-bh-refit, cpu-fmm)"
	fs.StringVar(p, "plan", def, usage)
	for _, a := range aliases {
		fs.StringVar(p, a, def, "alias for -plan")
	}
	return p
}

// N registers the shared -n body-count flag.
func N(fs *flag.FlagSet, def int) *int {
	return fs.Int("n", def, "number of bodies")
}

// HostWorkers registers the shared -host-workers flag: the goroutine cap of
// the host-side walk construction of the w- and jw-parallel plans; the tree
// build is always serial. 0 uses GOMAXPROCS; 1 forces the serial
// (allocation-free steady-state) path.
func HostWorkers(fs *flag.FlagSet) *int {
	return fs.Int("host-workers", 0,
		"host-side walk-construction goroutines of the tree plans (0 = GOMAXPROCS, 1 = serial)")
}

// Device is the -device flag: a modelled-device name validated at parse
// time. The zero value is invalid; register through DeviceFlag.
type Device struct {
	name string
	cfg  gpusim.DeviceConfig
}

// DeviceFlag registers -device with the given default name ("hd5850" for
// every current command) and returns the typed value.
func DeviceFlag(fs *flag.FlagSet, def string) *Device {
	d := &Device{}
	if err := d.Set(def); err != nil {
		panic(fmt.Sprintf("cliflags: bad default device %q: %v", def, err))
	}
	fs.Var(d, "device", "device model: "+strings.Join(DeviceNames(), ", "))
	return d
}

// DeviceNames lists the accepted -device values.
func DeviceNames() []string { return []string{"hd5850", "hd5870", "gtx280", "test"} }

// String implements flag.Value.
func (d *Device) String() string { return d.name }

// Set implements flag.Value, resolving and validating the device name.
func (d *Device) Set(s string) error {
	switch s {
	case "hd5850":
		d.cfg = gpusim.HD5850()
	case "hd5870":
		d.cfg = gpusim.HD5870()
	case "gtx280":
		d.cfg = gpusim.GTX280Class()
	case "test":
		d.cfg = gpusim.TestDevice()
	default:
		return fmt.Errorf("unknown device %q (want %s)", s, strings.Join(DeviceNames(), ", "))
	}
	d.name = s
	return nil
}

// Config returns the resolved device model.
func (d *Device) Config() gpusim.DeviceConfig { return d.cfg }

// KernelCheck is the -kernel-check flag: off, warn or strict, validated at
// parse time.
type KernelCheck struct {
	mode string
}

// KernelCheckFlag registers -kernel-check with the given default mode
// (every command defaults to "warn").
func KernelCheckFlag(fs *flag.FlagSet, def string) *KernelCheck {
	k := &KernelCheck{}
	if err := k.Set(def); err != nil {
		panic(fmt.Sprintf("cliflags: bad default kernel-check mode %q: %v", def, err))
	}
	fs.Var(k, "kernel-check", "lint the shipped OpenCL kernels before running: off, warn, strict")
	return k
}

// String implements flag.Value.
func (k *KernelCheck) String() string { return k.mode }

// Set implements flag.Value.
func (k *KernelCheck) Set(s string) error {
	switch s {
	case "off", "warn", "strict":
		k.mode = s
		return nil
	}
	return fmt.Errorf("unknown kernel-check mode %q (want off, warn or strict)", s)
}

// Mode returns the validated mode string, as consumed by
// core.PreflightKernelCheck.
func (k *KernelCheck) Mode() string { return k.mode }

// Pipeline is the -pipeline flag: the cross-step execution mode, validated
// at parse time.
type Pipeline struct {
	mode pipeline.Mode
}

// PipelineFlag registers -pipeline with the given default ("serial" for
// every current command).
func PipelineFlag(fs *flag.FlagSet, def string) *Pipeline {
	p := &Pipeline{}
	if err := p.Set(def); err != nil {
		panic(fmt.Sprintf("cliflags: bad default pipeline mode %q: %v", def, err))
	}
	fs.Var(p, "pipeline", "cross-step execution on the modelled timeline: serial or overlap (GPU plans only)")
	return p
}

// String implements flag.Value.
func (p *Pipeline) String() string { return p.mode.String() }

// Set implements flag.Value.
func (p *Pipeline) Set(s string) error {
	m, err := pipeline.ParseMode(s)
	if err != nil {
		return err
	}
	p.mode = m
	return nil
}

// Mode returns the parsed pipeline mode.
func (p *Pipeline) Mode() pipeline.Mode { return p.mode }

// IC is the -ic flag: a named initial-conditions scenario from the library
// in internal/ic, validated against sim.ScenarioNames at parse time.
type IC struct {
	name string
}

// ICFlag registers -ic with the given default scenario, plus any aliases
// (nbody keeps -workload as a deprecated alias) bound to the same value.
func ICFlag(fs *flag.FlagSet, def string, aliases ...string) *IC {
	c := &IC{}
	if err := c.Set(def); err != nil {
		panic(fmt.Sprintf("cliflags: bad default scenario %q: %v", def, err))
	}
	fs.Var(c, "ic", "initial conditions: "+strings.Join(sim.ScenarioNames(), ", "))
	for _, a := range aliases {
		fs.Var(c, a, "alias for -ic")
	}
	return c
}

// String implements flag.Value.
func (c *IC) String() string { return c.name }

// Set implements flag.Value, validating against the scenario library.
func (c *IC) Set(s string) error {
	for _, known := range sim.ScenarioNames() {
		if s == known {
			c.name = s
			return nil
		}
	}
	return fmt.Errorf("unknown scenario %q (want %s)", s, strings.Join(sim.ScenarioNames(), ", "))
}

// Name returns the validated scenario name (sim.Config.Scenario takes it
// verbatim, which arms the scenario's watchdog presets).
func (c *IC) Name() string { return c.name }

// Make generates the scenario's initial conditions with the library's
// default per-family parameters — the same defaults the job service applies
// to a JobSpec scenario, so a CLI run and a served job with matching
// (scenario, n, seed) start from the identical state.
func (c *IC) Make(n int, seed uint64) *body.System {
	switch c.name {
	case "plummer":
		return ic.Plummer(n, seed)
	case "hernquist":
		return ic.Hernquist(n, seed)
	case "cube":
		return ic.UniformCube(n, 2.0, seed)
	case "disk":
		return ic.Disk(n, 1.0, seed)
	case "collision":
		return ic.Collision(n, 4.0, 0.5, seed)
	}
	panic(fmt.Sprintf("cliflags: unvalidated scenario %q", c.name))
}

// ICSeed registers the shared -ic-seed scenario-seed flag, plus any aliases
// (commands keep their old -seed spelling as an alias).
func ICSeed(fs *flag.FlagSet, def uint64, aliases ...string) *uint64 {
	p := new(uint64)
	*p = def
	fs.Uint64Var(p, "ic-seed", def, "initial-conditions seed (selects the realization)")
	for _, a := range aliases {
		fs.Uint64Var(p, a, def, "alias for -ic-seed")
	}
	return p
}

// Integrator is the -integrator flag: a canonical integrator name validated
// through integrate.New at parse time, so a bad value fails in the usage
// message with the canonical-name list.
type Integrator struct {
	name string
}

// IntegratorFlag registers -integrator with the given default scheme.
func IntegratorFlag(fs *flag.FlagSet, def string) *Integrator {
	g := &Integrator{}
	if err := g.Set(def); err != nil {
		panic(fmt.Sprintf("cliflags: bad default integrator %q: %v", def, err))
	}
	fs.Var(g, "integrator", "integration scheme: "+strings.Join(integrate.Names(), ", "))
	return g
}

// String implements flag.Value.
func (g *Integrator) String() string { return g.name }

// Set implements flag.Value.
func (g *Integrator) Set(s string) error {
	if _, err := integrate.New(s); err != nil {
		return err
	}
	g.name = s
	return nil
}

// New constructs a fresh integrator of the selected scheme.
func (g *Integrator) New() integrate.Integrator {
	ig, err := integrate.New(g.name)
	if err != nil {
		panic(fmt.Sprintf("cliflags: unvalidated integrator %q: %v", g.name, err))
	}
	return ig
}

// ParseSizes parses a comma-separated list of positive body counts — the
// one parser behind every -sizes flag.
func ParseSizes(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad size %q (want a positive body count)", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// Sizes is the -sizes flag: a comma-separated list of body counts, empty
// meaning "the command's default sweep".
type Sizes struct {
	list []int
	raw  string
}

// SizesFlag registers -sizes.
func SizesFlag(fs *flag.FlagSet) *Sizes {
	s := &Sizes{}
	fs.Var(s, "sizes", "comma-separated body counts (default: the command's tracked sweep)")
	return s
}

// String implements flag.Value.
func (s *Sizes) String() string { return s.raw }

// Set implements flag.Value.
func (s *Sizes) Set(v string) error {
	list, err := ParseSizes(v)
	if err != nil {
		return err
	}
	s.list, s.raw = list, v
	return nil
}

// List returns the parsed sizes; nil when the flag was not given.
func (s *Sizes) List() []int { return s.list }
