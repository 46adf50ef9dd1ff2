package lint

import (
	"fmt"
	"path/filepath"
	"sort"
)

// The known-bad corpus under internal/lint/testdata/src pins every rule to
// concrete findings the same way internal/clc/analysis pins its kernel
// analyzers: each fixture is a small, type-correct package that must
// produce exactly its expected finding set — rule, file and line. CI runs
// the corpus on every push (`repocheck -corpus`), so a rule that silently
// stops firing breaks the build even while the real tree stays clean.
//
// Fixtures pose as module packages via AsPath so path-scoped rules
// (ctxpropagate's serve tightening, nodeterminism's package list) fire on
// them; the go/types package path stays the real testdata path, which is
// how the schemaversion fixtures key their deliberately-stale registry
// entries without colliding with the live tree.

// CorpusCase is one known-bad fixture package.
type CorpusCase struct {
	// Name is the directory under internal/lint/testdata/src.
	Name string
	// AsPath is the pseudo import path the fixture poses as.
	AsPath string
	// Want is the exact multiset of active findings the fixture must
	// produce.
	Want []CorpusWant
}

// CorpusWant pins one expected finding.
type CorpusWant struct {
	Rule string
	File string // basename within the fixture directory
	Line int
}

// CorpusCases returns the corpus manifest (two or more fixtures per rule).
func CorpusCases() []CorpusCase {
	return []CorpusCase{
		{Name: "ctx_simrun", AsPath: "repro/internal/pipefix", Want: []CorpusWant{
			{Rule: "ctxpropagate", File: "fix.go", Line: 12},
		}},
		{Name: "ctx_background", AsPath: "repro/internal/servefix", Want: []CorpusWant{
			{Rule: "ctxpropagate", File: "fix.go", Line: 8},
			{Rule: "ctxpropagate", File: "fix.go", Line: 9},
		}},
		{Name: "ctx_accel", AsPath: "repro/internal/serve/fix", Want: []CorpusWant{
			{Rule: "ctxpropagate", File: "fix.go", Line: 15},
			{Rule: "ctxpropagate", File: "fix.go", Line: 20},
		}},
		{Name: "arena_return", AsPath: "repro/internal/hostfix", Want: []CorpusWant{
			{Rule: "arenaescape", File: "fix.go", Line: 20},
		}},
		{Name: "arena_field", AsPath: "repro/internal/hostfix", Want: []CorpusWant{
			{Rule: "arenaescape", File: "fix.go", Line: 19},
		}},
		{Name: "span_noend", AsPath: "repro/internal/jobfix", Want: []CorpusWant{
			{Rule: "spanhygiene", File: "fix.go", Line: 8},
			{Rule: "spanhygiene", File: "fix.go", Line: 16},
		}},
		{Name: "span_goroutine", AsPath: "repro/internal/jobfix", Want: []CorpusWant{
			{Rule: "spanhygiene", File: "fix.go", Line: 10},
			{Rule: "spanhygiene", File: "fix.go", Line: 16},
		}},
		{Name: "nondet_time", AsPath: "repro/internal/gpusim/fix", Want: []CorpusWant{
			{Rule: "nodeterminism", File: "fix.go", Line: 8},
			{Rule: "nodeterminism", File: "fix.go", Line: 9},
		}},
		{Name: "nondet_rand", AsPath: "repro/internal/core/fix", Want: []CorpusWant{
			{Rule: "nodeterminism", File: "fix.go", Line: 8},
			{Rule: "nodeterminism", File: "fix.go", Line: 14},
		}},
		{Name: "schema_drift", AsPath: "repro/internal/schemafix", Want: []CorpusWant{
			{Rule: "schemaversion", File: "fix.go", Line: 10},
			{Rule: "schemaversion", File: "fix.go", Line: 27},
			{Rule: "schemaversion", File: "fix.go", Line: 32},
		}},
		{Name: "schema_unpinned", AsPath: "repro/internal/schemafix", Want: []CorpusWant{
			{Rule: "schemaversion", File: "fix.go", Line: 5},
		}},
		{Name: "metric_badname", AsPath: "repro/internal/obsfix", Want: []CorpusWant{
			{Rule: "metricname", File: "fix.go", Line: 8},
			{Rule: "metricname", File: "fix.go", Line: 9},
		}},
		{Name: "metric_kindclash", AsPath: "repro/internal/obsfix", Want: []CorpusWant{
			{Rule: "metricname", File: "fix.go", Line: 9},
		}},
		{Name: "deprecated_iparallel", AsPath: "repro/internal/planfix", Want: []CorpusWant{
			{Rule: "deprecatedapi", File: "fix.go", Line: 11},
		}},
		{Name: "deprecated_jparallel", AsPath: "repro/internal/planfix", Want: []CorpusWant{
			{Rule: "deprecatedapi", File: "fix.go", Line: 11},
		}},
		{Name: "stw_stats", AsPath: "repro/internal/statsfix", Want: []CorpusWant{
			{Rule: "stoptheworld", File: "fix.go", Line: 17},
			{Rule: "stoptheworld", File: "fix.go", Line: 23},
			{Rule: "stoptheworld", File: "fix.go", Line: 24},
			{Rule: "stoptheworld", File: "fix.go", Line: 25},
		}},
		{Name: "stw_args", AsPath: "repro/internal/serve/stwfix", Want: []CorpusWant{
			{Rule: "stoptheworld", File: "fix.go", Line: 17},
			{Rule: "stoptheworld", File: "fix.go", Line: 18},
			{Rule: "stoptheworld", File: "fix.go", Line: 26},
			{Rule: "stoptheworld", File: "fix.go", Line: 27},
			{Rule: "stoptheworld", File: "fix.go", Line: 35},
			{Rule: "stoptheworld", File: "fix.go", Line: 39},
		}},
		{Name: "sup_unused", AsPath: "repro/internal/supfix", Want: []CorpusWant{
			{Rule: "suppression", File: "fix.go", Line: 4},
		}},
		{Name: "sup_noreason", AsPath: "repro/internal/supfix", Want: []CorpusWant{
			{Rule: "suppression", File: "fix.go", Line: 8},
		}},
		{Name: "sup_unknownrule", AsPath: "repro/internal/supfix", Want: []CorpusWant{
			{Rule: "suppression", File: "fix.go", Line: 4},
			{Rule: "suppression", File: "fix.go", Line: 4},
		}},
	}
}

// RunCorpus checks every corpus fixture against its manifest and returns
// one problem string per disagreement (empty means the analyzers and the
// corpus agree everywhere).
func RunCorpus(l *Loader) []string {
	var problems []string
	for _, cse := range CorpusCases() {
		dir := filepath.Join(l.ModuleRoot, "internal", "lint", "testdata", "src", cse.Name)
		pkg, err := l.LoadDir(dir, cse.AsPath)
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: load: %v", cse.Name, err))
			continue
		}
		res, err := Check(l, []*Package{pkg}, nil)
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: check: %v", cse.Name, err))
			continue
		}
		problems = append(problems, diffCorpus(cse, res.Active())...)
	}
	return problems
}

// diffCorpus compares a fixture's active findings against its manifest as
// a multiset keyed by rule/file-basename/line.
func diffCorpus(cse CorpusCase, active []Diagnostic) []string {
	key := func(rule, file string, line int) string {
		return fmt.Sprintf("%s %s:%d", rule, file, line)
	}
	want := make(map[string]int)
	for _, w := range cse.Want {
		want[key(w.Rule, w.File, w.Line)]++
	}
	got := make(map[string]int)
	for _, d := range active {
		got[key(d.Rule, filepath.Base(d.File), d.Line)]++
	}
	var problems []string
	keys := make(map[string]bool)
	for k := range want {
		keys[k] = true
	}
	for k := range got {
		keys[k] = true
	}
	var ordered []string
	for k := range keys {
		ordered = append(ordered, k)
	}
	sort.Strings(ordered)
	for _, k := range ordered {
		switch {
		case got[k] < want[k]:
			problems = append(problems, fmt.Sprintf("%s: expected finding missing: %s (want %d, got %d)", cse.Name, k, want[k], got[k]))
		case got[k] > want[k]:
			problems = append(problems, fmt.Sprintf("%s: unexpected finding: %s (want %d, got %d)", cse.Name, k, want[k], got[k]))
		}
	}
	return problems
}
