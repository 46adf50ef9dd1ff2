// Package fix builds a plan through a deprecated constructor.
package fix

import (
	target "repro/internal/lint/testdata/src/deprecated_target"
)

// build uses the legacy constructor NewPlanByName replaced, for the
// i-parallel plan.
func build() *target.Plan {
	return target.NewLegacyPlan("i-parallel")
}
