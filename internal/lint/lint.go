// Package lint is a vet-style static-analysis framework over the
// repository's own Go source — the host-side counterpart of the kernel
// analyzers in internal/clc/analysis. Where kernelcheck guards the modelled
// device (races, barrier divergence, bounds), repocheck guards the host
// invariants the serve layer, the pooled tree builder, and the versioned
// JSON schemas depend on: context propagation instead of bare sim.Run,
// arena-backed slices staying inside their Reset boundary, spans reaching
// End on every path, determinism of everything feeding modelled timings,
// schema-version bumps travelling with field changes, and the dotted
// metric-name convention.
//
// Findings can be silenced with a justified suppression comment in the Go
// source:
//
//	// repocheck:allow rule1,rule2 -- why this is safe
//
// On its own line the pragma covers the next statement (and, when that
// statement opens a block, the whole block); at the end of a code line it
// covers that line. A suppression without a justification, naming an
// unknown rule, or matching no finding is itself reported, so stale
// annotations cannot accumulate — the same audited-pragma contract
// kernelcheck enforces for kernels.
//
// The severity policy mirrors internal/clc/analysis: rules whose violation
// changes results or corrupts state (ctxpropagate, arenaescape,
// nodeterminism, schemaversion) are errors; hygiene and convention rules
// (spanhygiene, metricname, deprecatedapi, suppression) are warnings. The
// repocheck CLI exits nonzero on any unsuppressed finding either way, so
// the tree-clean CI gate holds both classes at zero.
package lint

import (
	"encoding/json"
	"fmt"
	"go/token"
	"io"
	"sort"
)

// Severity classifies a diagnostic.
type Severity int

// Severities. Errors are invariant violations that change behaviour;
// warnings are hygiene and convention findings. Both fail repocheck.
const (
	SevWarning Severity = iota
	SevError
)

// String implements fmt.Stringer.
func (s Severity) String() string {
	if s == SevError {
		return "error"
	}
	return "warning"
}

// MarshalJSON renders the severity as its string form, so the JSON schema
// is self-describing ("error"/"warning") rather than an enum ordinal.
func (s Severity) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// UnmarshalJSON accepts the string form.
func (s *Severity) UnmarshalJSON(b []byte) error {
	var v string
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	switch v {
	case "error":
		*s = SevError
	case "warning":
		*s = SevWarning
	default:
		return fmt.Errorf("lint: unknown severity %q", v)
	}
	return nil
}

// Diagnostic is one finding of one rule. The JSON field set is the shared
// wire schema: repocheck -json and kernelcheck -json emit byte-compatible
// records, so CI and editors consume one format for both analyzers.
type Diagnostic struct {
	// Rule is the reporting rule's name (e.g. "ctxpropagate").
	Rule string `json:"rule"`
	// Sev is the rule's severity.
	Sev Severity `json:"severity"`
	// File locates the finding (repo-relative for repocheck, the input
	// path for kernelcheck), with 1-based Line and Col.
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	// Unit is the enclosing analysis unit: the package import path for
	// repocheck, the kernel function for kernelcheck ("" for file-level
	// findings such as suppression hygiene).
	Unit string `json:"unit,omitempty"`
	// Message describes the finding.
	Message string `json:"message"`
	// Suppressed marks a finding silenced by a justified allow pragma.
	Suppressed bool `json:"suppressed,omitempty"`
	// SuppressReason is the pragma's justification when Suppressed.
	SuppressReason string `json:"suppress_reason,omitempty"`
}

// String renders the diagnostic in file:line:col style.
func (d Diagnostic) String() string {
	s := fmt.Sprintf("%s:%d:%d: %s: %s (%s)", d.File, d.Line, d.Col, d.Rule, d.Message, d.Sev)
	if d.Suppressed {
		s += " [suppressed: " + d.SuppressReason + "]"
	}
	return s
}

// Report is the -json document: a versioned envelope around the shared
// Diagnostic records.
type Report struct {
	SchemaVersion int          `json:"schema_version"`
	Tool          string       `json:"tool"`
	Findings      []Diagnostic `json:"findings"`
}

// ReportSchemaVersion identifies the -json envelope layout.
const ReportSchemaVersion = 1

// WriteJSON writes the findings as the versioned Report document. Both
// repocheck and kernelcheck emit through here, which is what keeps the two
// -json modes byte-compatible record for record.
func WriteJSON(w io.Writer, tool string, diags []Diagnostic) error {
	rep := Report{SchemaVersion: ReportSchemaVersion, Tool: tool, Findings: diags}
	if rep.Findings == nil {
		rep.Findings = []Diagnostic{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// Result is the outcome of analyzing a set of packages.
type Result struct {
	// Diags holds every finding (suppressed ones included), ordered by
	// file, line, col, rule.
	Diags []Diagnostic
}

// Active returns the unsuppressed findings — the set that fails repocheck.
func (r *Result) Active() []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diags {
		if !d.Suppressed {
			out = append(out, d)
		}
	}
	return out
}

// Suppressed returns the findings silenced by pragmas.
func (r *Result) Suppressed() []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diags {
		if d.Suppressed {
			out = append(out, d)
		}
	}
	return out
}

// sortDiags orders findings by file, line, col, then rule, so output is
// deterministic across runs and package orders.
func sortDiags(diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		if diags[i].File != diags[j].File {
			return diags[i].File < diags[j].File
		}
		if diags[i].Line != diags[j].Line {
			return diags[i].Line < diags[j].Line
		}
		if diags[i].Col != diags[j].Col {
			return diags[i].Col < diags[j].Col
		}
		return diags[i].Rule < diags[j].Rule
	})
}

// posOf converts a token position into the diagnostic's file/line/col
// triple, relativizing the file against the loader's module root.
func (l *Loader) posOf(pos token.Pos) (string, int, int) {
	p := l.Fset.Position(pos)
	return l.relPath(p.Filename), p.Line, p.Column
}
