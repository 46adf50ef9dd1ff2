package cliflags

import (
	"flag"
	"io"
	"reflect"
	"testing"

	"repro/internal/integrate"
	"repro/internal/pipeline"
	"repro/internal/sim"
)

func quietFlagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

func TestPlanFlagWithAlias(t *testing.T) {
	fs := quietFlagSet()
	p := Plan(fs, "jw-parallel", "engine")
	if err := fs.Parse([]string{"-engine", "i-parallel"}); err != nil {
		t.Fatal(err)
	}
	if *p != "i-parallel" {
		t.Errorf("alias did not set the shared value: %q", *p)
	}
	fs2 := quietFlagSet()
	p2 := Plan(fs2, "jw-parallel", "engine")
	if err := fs2.Parse([]string{"-plan", "w-parallel"}); err != nil {
		t.Fatal(err)
	}
	if *p2 != "w-parallel" {
		t.Errorf("-plan did not set the value: %q", *p2)
	}
}

func TestDeviceFlagValidates(t *testing.T) {
	fs := quietFlagSet()
	d := DeviceFlag(fs, "hd5850")
	if err := fs.Parse([]string{"-device", "gtx280"}); err != nil {
		t.Fatal(err)
	}
	if d.String() != "gtx280" || d.Config().Name == "" {
		t.Errorf("device = %q cfg=%+v", d, d.Config())
	}
	fs2 := quietFlagSet()
	DeviceFlag(fs2, "hd5850")
	if err := fs2.Parse([]string{"-device", "rtx4090"}); err == nil {
		t.Error("unknown device accepted")
	}
}

func TestDeviceFlagDefault(t *testing.T) {
	fs := quietFlagSet()
	d := DeviceFlag(fs, "hd5850")
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if d.Config().ComputeUnits == 0 {
		t.Error("default device not resolved")
	}
}

func TestKernelCheckFlag(t *testing.T) {
	fs := quietFlagSet()
	k := KernelCheckFlag(fs, "warn")
	if err := fs.Parse([]string{"-kernel-check", "strict"}); err != nil {
		t.Fatal(err)
	}
	if k.Mode() != "strict" {
		t.Errorf("mode = %q", k.Mode())
	}
	fs2 := quietFlagSet()
	KernelCheckFlag(fs2, "warn")
	if err := fs2.Parse([]string{"-kernel-check", "loose"}); err == nil {
		t.Error("bad kernel-check mode accepted")
	}
}

func TestPipelineFlag(t *testing.T) {
	fs := quietFlagSet()
	p := PipelineFlag(fs, "serial")
	if err := fs.Parse([]string{"-pipeline", "overlap"}); err != nil {
		t.Fatal(err)
	}
	if p.Mode() != pipeline.Overlap {
		t.Errorf("mode = %v", p.Mode())
	}
	fs2 := quietFlagSet()
	PipelineFlag(fs2, "serial")
	if err := fs2.Parse([]string{"-pipeline", "async"}); err == nil {
		t.Error("bad pipeline mode accepted")
	}
}

func TestSizesFlag(t *testing.T) {
	fs := quietFlagSet()
	s := SizesFlag(fs)
	if err := fs.Parse([]string{"-sizes", "1024, 2048,4096"}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.List(), []int{1024, 2048, 4096}) {
		t.Errorf("sizes = %v", s.List())
	}
	fs2 := quietFlagSet()
	SizesFlag(fs2)
	if err := fs2.Parse([]string{"-sizes", "1024,-3"}); err == nil {
		t.Error("negative size accepted")
	}
	fs3 := quietFlagSet()
	s3 := SizesFlag(fs3)
	if err := fs3.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if s3.List() != nil {
		t.Errorf("unset sizes = %v, want nil", s3.List())
	}
}

func TestICFlagWithAlias(t *testing.T) {
	fs := quietFlagSet()
	c := ICFlag(fs, "plummer", "workload")
	if err := fs.Parse([]string{"-workload", "disk"}); err != nil {
		t.Fatal(err)
	}
	if c.Name() != "disk" {
		t.Errorf("alias did not set the scenario: %q", c.Name())
	}
	if sys := c.Make(16, 1); sys.N() != 16 {
		t.Errorf("Make produced %d bodies", sys.N())
	}
	fs2 := quietFlagSet()
	ICFlag(fs2, "plummer")
	if err := fs2.Parse([]string{"-ic", "torus"}); err == nil {
		t.Error("unknown scenario accepted")
	}
	// Every library scenario must be both accepted and generatable.
	for _, name := range sim.ScenarioNames() {
		fs := quietFlagSet()
		c := ICFlag(fs, "plummer")
		if err := fs.Parse([]string{"-ic", name}); err != nil {
			t.Errorf("scenario %q rejected: %v", name, err)
			continue
		}
		if sys := c.Make(8, 2); sys.N() != 8 {
			t.Errorf("scenario %q: Make produced %d bodies", name, sys.N())
		}
	}
}

func TestICSeedWithAlias(t *testing.T) {
	fs := quietFlagSet()
	s := ICSeed(fs, 1, "seed")
	if err := fs.Parse([]string{"-seed", "42"}); err != nil {
		t.Fatal(err)
	}
	if *s != 42 {
		t.Errorf("alias did not set the seed: %d", *s)
	}
	fs2 := quietFlagSet()
	s2 := ICSeed(fs2, 7)
	if err := fs2.Parse([]string{"-ic-seed", "9"}); err != nil {
		t.Fatal(err)
	}
	if *s2 != 9 {
		t.Errorf("-ic-seed did not set the value: %d", *s2)
	}
}

func TestIntegratorFlag(t *testing.T) {
	fs := quietFlagSet()
	g := IntegratorFlag(fs, "leapfrog")
	if err := fs.Parse([]string{"-integrator", "hermite"}); err != nil {
		t.Fatal(err)
	}
	if g.New().Name() != "hermite" {
		t.Errorf("integrator New() named %q, want hermite", g.New().Name())
	}
	fs2 := quietFlagSet()
	IntegratorFlag(fs2, "leapfrog")
	if err := fs2.Parse([]string{"-integrator", "rk9"}); err == nil {
		t.Error("unknown integrator accepted")
	}
	// Every canonical name must round-trip through the flag.
	for _, name := range integrate.Names() {
		fs := quietFlagSet()
		g := IntegratorFlag(fs, "leapfrog")
		if err := fs.Parse([]string{"-integrator", name}); err != nil {
			t.Errorf("integrator %q rejected: %v", name, err)
			continue
		}
		if g.New().Name() != name {
			t.Errorf("integrator %q: New() named %q", name, g.New().Name())
		}
	}
}

func TestParseSizes(t *testing.T) {
	if got, err := ParseSizes(""); err != nil || got != nil {
		t.Errorf("empty: %v %v", got, err)
	}
	if _, err := ParseSizes("a,b"); err == nil {
		t.Error("garbage accepted")
	}
	if got, _ := ParseSizes("8"); !reflect.DeepEqual(got, []int{8}) {
		t.Errorf("single = %v", got)
	}
}
