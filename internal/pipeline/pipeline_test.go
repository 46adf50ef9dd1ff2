package pipeline

import (
	"math"
	"testing"
)

func TestRunnerSerialVsOverlap(t *testing.T) {
	const host, dev = 3e-3, 5e-3
	serial := &Runner{Mode: Serial}
	overlap := &Runner{Mode: Overlap}
	var last float64
	for i := 0; i < 4; i++ {
		serial.Account(host, dev)
		last = overlap.Account(host, dev)
	}
	if got, want := serial.ExecutedSeconds(), 4*(host+dev); math.Abs(got-want) > 1e-12 {
		t.Errorf("serial executed = %g, want %g", got, want)
	}
	// Pipeline fill: first step pays host+dev; the remaining three pay
	// max(host, dev) = dev.
	if got, want := overlap.ExecutedSeconds(), host+4*dev; math.Abs(got-want) > 1e-12 {
		t.Errorf("overlap executed = %g, want %g", got, want)
	}
	// Steady state: the last step advanced the timeline by the device chain.
	if math.Abs(last-dev) > 1e-12 {
		t.Errorf("overlap steady-state step = %g, want %g", last, dev)
	}
}

// TestRunnerSerialAccountIsStepCost: a serial step costs exactly its host
// plus device seconds however far the timeline has run, while the timeline
// itself still advances by end-to-end sums.
func TestRunnerSerialAccountIsStepCost(t *testing.T) {
	host, dev := 2.7e-3, 10.3e-3 // variables: a constant host+dev is exact
	r := &Runner{Mode: Serial}
	end := 0.0
	for i := 0; i < 5; i++ {
		if got := r.Account(host, dev); got != host+dev {
			t.Errorf("step %d: Account = %.17g, want %.17g", i, got, host+dev)
		}
		end = end + host + dev
		if got := r.ExecutedSeconds(); got != end {
			t.Errorf("step %d: executed = %.17g, want %.17g", i, got, end)
		}
	}
}

// TestRunnerHostBound: when the host chain dominates, it sets the pace.
func TestRunnerHostBound(t *testing.T) {
	r := &Runner{Mode: Overlap}
	const host, dev = 7e-3, 2e-3
	for i := 0; i < 3; i++ {
		r.Account(host, dev)
	}
	// Host chain runs continuously: 3*host, plus the last device chain
	// draining after the final build.
	if got, want := r.ExecutedSeconds(), 3*host+dev; math.Abs(got-want) > 1e-12 {
		t.Errorf("executed = %g, want %g", got, want)
	}
}

func TestRunnerWindowJoin(t *testing.T) {
	r := &Runner{Mode: Overlap}
	const host, dev = 3e-3, 5e-3
	r.BeginWindow()
	r.Account(host, dev)
	r.Account(host, dev)
	w1 := r.EndWindow()
	if want := host + 2*dev; math.Abs(w1-want) > 1e-12 {
		t.Errorf("window 1 = %g, want %g", w1, want)
	}
	// After the join, the next window re-pays the pipeline fill.
	r.BeginWindow()
	r.Account(host, dev)
	w2 := r.EndWindow()
	if want := host + dev; math.Abs(w2-want) > 1e-12 {
		t.Errorf("window 2 = %g, want %g", w2, want)
	}
	if got, want := r.ExecutedSeconds(), w1+w2; math.Abs(got-want) > 1e-12 {
		t.Errorf("total executed = %g, want %g", got, want)
	}
}

func TestParseMode(t *testing.T) {
	for s, want := range map[string]Mode{"serial": Serial, "overlap": Overlap} {
		m, err := ParseMode(s)
		if err != nil || m != want {
			t.Errorf("ParseMode(%q) = %v, %v", s, m, err)
		}
		if m.String() != s {
			t.Errorf("Mode(%v).String() = %q", m, m.String())
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Error("ParseMode(bogus) succeeded")
	}
}
