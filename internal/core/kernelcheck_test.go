package core

import (
	"bytes"
	"sort"
	"testing"
)

// The shipped kernels must lint clean: zero active findings, and the
// suppressed set pinned exactly so a drive-by edit can't silently widen a
// suppression or surface a new finding.
func TestBuiltinKernelsLintClean(t *testing.T) {
	wantSuppressed := map[string][]string{
		"iparallel":  {"boundsguard", "boundsguard"},
		"iparallel4": {"boundsguard", "boundsguard"},
		"jparallel":  {"localrace", "localrace", "localrace"},
		"wparallel":  {"uncoalesced", "uncoalesced"},
		"jwparallel": {},
	}
	results := CheckBuiltinKernels()
	if len(results) != len(wantSuppressed) {
		t.Fatalf("linted %d builtins, want %d", len(results), len(wantSuppressed))
	}
	for _, r := range results {
		if r.Err != nil {
			t.Errorf("%s: analysis failed: %v", r.Name, r.Err)
			continue
		}
		for _, d := range r.Result.Active() {
			t.Errorf("%s: unexpected active finding: %s", r.Name, d)
		}
		var got []string
		for _, d := range r.Result.Suppressed() {
			got = append(got, d.Rule)
			if d.SuppressReason == "" {
				t.Errorf("%s: suppressed %s has no reason", r.Name, d.Rule)
			}
		}
		sort.Strings(got)
		want := wantSuppressed[r.Name]
		if len(got) != len(want) {
			t.Errorf("%s: suppressed rules %v, want %v", r.Name, got, want)
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: suppressed rules %v, want %v", r.Name, got, want)
				break
			}
		}
	}
}

func TestBuiltinLintReport(t *testing.T) {
	report, active := BuiltinLintReport(CheckBuiltinKernels(), false)
	if active != 0 {
		t.Fatalf("builtins have %d active findings:\n%s", active, report)
	}
	if report != "" {
		t.Errorf("quiet report should be empty, got:\n%s", report)
	}
	verbose, _ := BuiltinLintReport(CheckBuiltinKernels(), true)
	if verbose == "" {
		t.Error("verbose report should list suppressed findings")
	}
}

func TestPreflightKernelCheck(t *testing.T) {
	// The shipped kernels lint clean, so even strict mode must succeed.
	var buf bytes.Buffer
	if err := PreflightKernelCheck("strict", nil, &buf); err != nil {
		t.Fatalf("strict preflight on clean kernels failed: %v", err)
	}
	if err := PreflightKernelCheck("bogus", nil, nil); err == nil {
		t.Error("bogus kernel-check mode accepted")
	}
}
