// Package target is the deprecatedapi corpus target: a plan constructor
// kept for old callers beside its replacement. The deprecated_* fixtures
// call the deprecated one.
package target

// Plan is a stand-in execution plan.
type Plan struct{ Name string }

// NewPlanByName builds the named plan.
func NewPlanByName(name string) *Plan { return &Plan{Name: name} }

// NewLegacyPlan builds the named plan.
//
// Deprecated: use NewPlanByName.
func NewLegacyPlan(name string) *Plan { return NewPlanByName(name) }
