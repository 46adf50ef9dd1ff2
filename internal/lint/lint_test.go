package lint

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// newTestLoader returns a loader rooted at the module containing this
// package (tests run in internal/lint, so "." walks up to go.mod).
func newTestLoader(t *testing.T) *Loader {
	t.Helper()
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	return l
}

// TestRepocheckClean is the tree-clean gate: the shipped tree must produce
// zero active findings under every rule. Pinned suppressions stay visible
// through Result.Suppressed but do not fail the gate; deleting any one of
// them (or introducing a new violation) fails this test.
func TestRepocheckClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	l := newTestLoader(t)
	dirs, err := l.ExpandPatterns([]string{"./..."})
	if err != nil {
		t.Fatalf("ExpandPatterns: %v", err)
	}
	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := l.LoadDir(dir, "")
		if err != nil {
			t.Fatalf("LoadDir(%s): %v", dir, err)
		}
		pkgs = append(pkgs, pkg)
	}
	res, err := Check(l, pkgs, nil)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	for _, d := range res.Active() {
		t.Errorf("active finding on shipped tree: %s", d)
	}
	// The tree is expected to carry its pinned suppressions: if they all
	// vanish, either the rules stopped firing or someone scrubbed the
	// pragmas without this gate noticing. Either way, look.
	if len(res.Suppressed()) == 0 {
		t.Errorf("no suppressed findings on shipped tree; expected the pinned repocheck:allow sites to still fire")
	}
}

// TestCorpusAgreement runs the known-bad corpus: every fixture must produce
// exactly its pinned finding multiset (rule, file, line).
func TestCorpusAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the corpus fixtures")
	}
	l := newTestLoader(t)
	for _, p := range RunCorpus(l) {
		t.Errorf("corpus: %s", p)
	}
}

// loadFixture type-checks one testdata package under the given pseudo
// import path and runs the full rule set over it.
func loadFixture(t *testing.T, name, asPath string) *Result {
	t.Helper()
	l := newTestLoader(t)
	dir := filepath.Join(l.ModuleRoot, "internal", "lint", "testdata", "src", name)
	pkg, err := l.LoadDir(dir, asPath)
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", name, err)
	}
	res, err := Check(l, []*Package{pkg}, nil)
	if err != nil {
		t.Fatalf("Check(%s): %v", name, err)
	}
	return res
}

// TestLoaderHonoursBuildConstraints: the fixture declares Pick twice, in
// pick_amd64.go (selected by its file suffix) and pick_other.go (selected
// by //go:build !amd64). The loader must type-check exactly the file the
// go command would build here, not report Pick as redeclared.
func TestLoaderHonoursBuildConstraints(t *testing.T) {
	l := newTestLoader(t)
	dir := filepath.Join(l.ModuleRoot, "internal", "lint", "testdata", "src", "buildtags")
	pkg, err := l.LoadDir(dir, "repro/internal/buildfix")
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	want := "pick_other.go"
	if runtime.GOARCH == "amd64" {
		want = "pick_amd64.go"
	}
	var got []string
	for _, f := range pkg.Files {
		got = append(got, filepath.Base(l.Fset.File(f.Pos()).Name()))
	}
	if len(got) != 1 || got[0] != want {
		t.Errorf("loaded %v, want only %s", got, want)
	}
}

func countRule(diags []Diagnostic, rule string) int {
	n := 0
	for _, d := range diags {
		if d.Rule == rule {
			n++
		}
	}
	return n
}

func findAt(diags []Diagnostic, rule string, line int) *Diagnostic {
	for i := range diags {
		if diags[i].Rule == rule && diags[i].Line == line {
			return &diags[i]
		}
	}
	return nil
}

// TestSuppressionWrongLine: a trailing pragma covers only its own line, so
// a pragma anchored to the wrong line leaves the real finding active AND
// surfaces the pragma as matching nothing — two findings, not zero.
func TestSuppressionWrongLine(t *testing.T) {
	res := loadFixture(t, "sup_wrongline", "repro/internal/core/supfix")
	active := res.Active()
	if d := findAt(active, "nodeterminism", 11); d == nil {
		t.Errorf("nodeterminism finding at line 11 not active; got %v", active)
	}
	if d := findAt(active, "suppression", 9); d == nil || !strings.Contains(d.Message, "matches no finding") {
		t.Errorf("no unused-pragma finding at line 9; got %v", active)
	}
	if n := len(res.Suppressed()); n != 0 {
		t.Errorf("suppressed %d findings; the wrong-line pragma must cover nothing", n)
	}
}

// TestSuppressionZeroBlock: a standalone pragma covering a clean block is
// pure debt — the only finding is the audit's own "matches no finding".
func TestSuppressionZeroBlock(t *testing.T) {
	res := loadFixture(t, "sup_zeroblock", "repro/internal/core/supfix")
	active := res.Active()
	if len(active) != 1 {
		t.Fatalf("want exactly 1 active finding, got %d: %v", len(active), active)
	}
	if active[0].Rule != "suppression" || active[0].Line != 6 ||
		!strings.Contains(active[0].Message, "matches no finding") {
		t.Errorf("want unused-pragma finding at line 6, got %s", active[0])
	}
}

// TestSuppressionDuplicate: two pragmas stacked on one finding — the first
// (in source order) claims it; the duplicate is reported as unused so
// justifications cannot silently pile up.
func TestSuppressionDuplicate(t *testing.T) {
	res := loadFixture(t, "sup_duplicate", "repro/internal/core/supfix")
	sup := res.Suppressed()
	if len(sup) != 1 || sup[0].Rule != "nodeterminism" {
		t.Fatalf("want exactly 1 suppressed nodeterminism finding, got %v", sup)
	}
	if want := "block-level justification wins"; sup[0].SuppressReason != want {
		t.Errorf("suppressed by %q, want the first pragma in source order (%q)", sup[0].SuppressReason, want)
	}
	active := res.Active()
	if len(active) != 1 || active[0].Rule != "suppression" || active[0].Line != 10 {
		t.Fatalf("want exactly the duplicate-pragma finding at line 10, got %v", active)
	}
	if countRule(res.Diags, "suppression") != 1 {
		t.Errorf("duplicate pragma produced extra suppression findings: %v", res.Diags)
	}
}

// TestWriteJSONSchema pins the wire format shared with kernelcheck: the
// envelope fields, the per-record field names, and the omission of empty
// optional fields.
func TestWriteJSONSchema(t *testing.T) {
	diags := []Diagnostic{
		{Rule: "ctxpropagate", Sev: SevError, File: "a.go", Line: 3, Col: 7, Message: "m"},
		{Rule: "spanhygiene", Sev: SevWarning, File: "b.go", Line: 1, Col: 1, Unit: "f",
			Message: "n", Suppressed: true, SuppressReason: "why"},
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, "repocheck", diags); err != nil {
		t.Fatal(err)
	}

	var rep Report
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if rep.SchemaVersion != ReportSchemaVersion || rep.Tool != "repocheck" || len(rep.Findings) != 2 {
		t.Fatalf("envelope: %+v", rep)
	}
	if rep.Findings[0].Sev != SevError || rep.Findings[1].SuppressReason != "why" {
		t.Errorf("findings did not round-trip: %+v", rep.Findings)
	}

	var raw map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	var recs []map[string]json.RawMessage
	if err := json.Unmarshal(raw["findings"], &recs); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"rule", "severity", "file", "line", "col", "message"} {
		if _, ok := recs[0][key]; !ok {
			t.Errorf("record missing %q: %v", key, recs[0])
		}
	}
	for _, key := range []string{"unit", "suppressed", "suppress_reason"} {
		if _, ok := recs[0][key]; ok {
			t.Errorf("empty optional field %q not omitted", key)
		}
		if _, ok := recs[1][key]; !ok {
			t.Errorf("set optional field %q missing", key)
		}
	}
}

// TestWriteJSONToolAgnostic: the same findings written under two tool names
// differ only in the tool field — this is what makes repocheck and
// kernelcheck outputs byte-compatible at the record level.
func TestWriteJSONToolAgnostic(t *testing.T) {
	diags := []Diagnostic{{Rule: "r", Sev: SevWarning, File: "f", Line: 1, Col: 2, Message: "m"}}
	var a, b bytes.Buffer
	if err := WriteJSON(&a, "repocheck", diags); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&b, "kernelcheck", diags); err != nil {
		t.Fatal(err)
	}
	want := bytes.Replace(a.Bytes(), []byte(`"tool": "repocheck"`), []byte(`"tool": "kernelcheck"`), 1)
	if !bytes.Equal(want, b.Bytes()) {
		t.Errorf("outputs differ beyond the tool field:\n%s\n---\n%s", a.String(), b.String())
	}
}

// TestWriteJSONEmpty: zero findings must still emit a well-formed document
// with an empty (not null) findings array.
func TestWriteJSONEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, "repocheck", nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"findings": []`) {
		t.Errorf("nil findings not encoded as []:\n%s", buf.String())
	}
}
