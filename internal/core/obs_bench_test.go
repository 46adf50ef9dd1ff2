package core

import (
	"testing"

	"repro/internal/ic"
	"repro/internal/obs"
)

// benchJWAccel measures one jw-parallel Accel per iteration, with telemetry
// either absent (nil *Obs: the disabled path every instrumented call site
// takes) or live. Comparing the two quantifies the acceptance criterion that
// disabled telemetry adds no measurable overhead to plan execution.
func benchJWAccel(b *testing.B, o *obs.Obs) {
	ctx := newHD5850Context(b)
	plan := planOn[*JWParallel](b, ctx, "jw-parallel")
	plan.SetObs(o)
	sys := ic.Plummer(2048, 7)
	if _, err := plan.Accel(sys); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.Accel(sys); err != nil {
			b.Fatal(err)
		}
		if o != nil && i%16 == 15 {
			o.Trace.Reset() // keep the span slice from growing across iterations
		}
	}
}

func BenchmarkJWParallelAccelObsOff(b *testing.B) { benchJWAccel(b, nil) }

func BenchmarkJWParallelAccelObsOn(b *testing.B) { benchJWAccel(b, obs.New()) }
