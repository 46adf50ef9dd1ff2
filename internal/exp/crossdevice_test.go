package exp

import (
	"fmt"
	"strings"
	"testing"
)

// TestCrossDevice checks the portability story the PTPM predicts: the
// bigger VLIW part is proportionally faster, the scalar SIMT part achieves
// far higher efficiency (easier issue slots) despite lower peak, and the
// multi-GPU extension scales.
func TestCrossDevice(t *testing.T) {
	out, err := CrossDevice(quickConfig(), 4096)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"HD 5850", "HD 5870", "GTX 280", "multi-GPU"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 8 {
		t.Fatalf("unexpected table:\n%s", out)
	}
	// Parse the GFLOPS column (4th from the end is device... use fields:
	// last is efficiency, second-to-last GFLOPS).
	gf := func(line string) float64 {
		f := strings.Fields(line)
		var v float64
		if _, err := fmt.Sscan(f[len(f)-2], &v); err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		return v
	}
	hd5850 := gf(lines[3])
	hd5870 := gf(lines[4])
	dual := gf(lines[6])
	if hd5870 <= hd5850 {
		t.Errorf("HD 5870 (%g) not faster than HD 5850 (%g)", hd5870, hd5850)
	}
	if dual < 1.5*hd5850 {
		t.Errorf("dual-GPU (%g) not scaling over single (%g)", dual, hd5850)
	}
	// Efficiency contrast: SIMT part should report a higher percentage.
	if !strings.Contains(lines[5], "%") {
		t.Errorf("no efficiency column: %s", lines[5])
	}
}

func TestAlgorithms(t *testing.T) {
	out, err := Algorithms(quickConfig(), []int{1024, 4096})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"PP (direct)", "Barnes-Hut", "FMM", "exact"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
	// The table should show PP's interaction count strictly above BH's and
	// BH's above FMM's at N=4096 (count the commas as a cheap proxy is too
	// fragile; parse the rows).
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var counts []float64
	for _, ln := range lines {
		if strings.Contains(ln, "4096") || (len(counts) > 0 && len(counts) < 3 &&
			(strings.Contains(ln, "Barnes-Hut") || strings.Contains(ln, "FMM"))) {
			f := strings.Fields(ln)
			for i, tok := range f {
				if tok == "(direct)" || tok == "Barnes-Hut" || tok == "(dual-tree)" {
					v := strings.ReplaceAll(f[i+1], ",", "")
					var x float64
					if _, err := fmt.Sscan(v, &x); err == nil {
						counts = append(counts, x)
					}
					break
				}
			}
		}
	}
	if len(counts) != 3 {
		t.Fatalf("parsed %d counts from:\n%s", len(counts), out)
	}
	if !(counts[0] > counts[1] && counts[1] > counts[2]) {
		t.Errorf("interaction ordering PP > BH > FMM violated: %v", counts)
	}
}

func TestQuadrupoleSweep(t *testing.T) {
	out, err := QuadrupoleSweep(quickConfig(), 2048, []float32{0.5, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "quad gain") {
		t.Fatalf("bad table:\n%s", out)
	}
	// Every row's quadrupole error must beat the monopole error (gain > 1).
	lines := strings.Split(strings.TrimSpace(out), "\n")
	for _, ln := range lines[3:] { // title, header, separator
		f := strings.Fields(ln)
		gain := f[len(f)-1]
		var g float64
		if _, err := fmt.Sscan(strings.TrimSuffix(gain, "x"), &g); err != nil {
			t.Fatalf("parse gain %q: %v", gain, err)
		}
		if g <= 1 {
			t.Errorf("quadrupole gain %g not above 1 in row %q", g, ln)
		}
	}
}

func TestWorkloadSensitivity(t *testing.T) {
	out, err := WorkloadSensitivity(quickConfig(), 2048)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"plummer", "cube", "disk", "collision"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}
