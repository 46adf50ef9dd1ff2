package obs

import (
	"strings"
	"testing"
	"time"
)

// sloClock is a settable test clock.
type sloClock struct{ t time.Time }

func (c *sloClock) now() time.Time          { return c.t }
func (c *sloClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestTracker(t *testing.T, reg *Registry, objs ...SLOObjective) (*SLOTracker, *sloClock) {
	t.Helper()
	tr, err := NewSLOTracker(objs, reg)
	if err != nil {
		t.Fatal(err)
	}
	clk := &sloClock{t: time.Unix(1_700_000_000, 0)}
	tr.Now = clk.now
	return tr, clk
}

func TestSLOTrackerValidation(t *testing.T) {
	for name, obj := range map[string]SLOObjective{
		"no name":       {Target: 0.9},
		"target zero":   {Name: "x", Target: 0},
		"target one":    {Name: "x", Target: 1},
		"negative burn": {Name: "x", Target: 0.9, BurnThreshold: -1},
		"zero window":   {Name: "x", Target: 0.9, Windows: []time.Duration{0}},
	} {
		if _, err := NewSLOTracker([]SLOObjective{obj}, nil); err == nil {
			t.Errorf("%s: want error, got none", name)
		}
	}
	if _, err := NewSLOTracker([]SLOObjective{
		{Name: "a", Target: 0.9}, {Name: "a", Target: 0.9},
	}, nil); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate objectives: got %v", err)
	}
}

func TestSLOTrackerBurnRisingEdge(t *testing.T) {
	reg := NewRegistry()
	tr, clk := newTestTracker(t, reg, SLOObjective{
		Name:    "job_latency",
		Target:  0.9, // 10% error budget
		Windows: []time.Duration{time.Minute, 10 * time.Minute},
	})

	// All good: no burn.
	for i := 0; i < 5; i++ {
		clk.advance(time.Second)
		if st, rising := tr.Observe("job_latency", true); rising || st.Burning {
			t.Fatalf("good event %d burns: %+v", i, st)
		}
	}
	// One bad event among five good: 1/6 bad fraction over 10% budget ->
	// burn rate ~1.7 in both windows, rising edge exactly once.
	st, rising := tr.Observe("job_latency", false)
	if !st.Burning || !rising {
		t.Fatalf("bad event should trip the alarm: burning=%v rising=%v %+v", st.Burning, rising, st)
	}
	if st.Windows[0].BurnRate <= 1 {
		t.Fatalf("short-window burn rate %g should exceed 1", st.Windows[0].BurnRate)
	}
	// Still burning, but no second rising edge.
	if st, rising := tr.Observe("job_latency", false); !st.Burning || rising {
		t.Fatalf("second bad event: burning=%v rising=%v", st.Burning, rising)
	}

	// Gauges exported under nbody_slo_* names.
	snap := reg.Snapshot()
	if v := snap.Gauges["nbody.slo.job_latency.burning"]; v != 1 {
		t.Fatalf("burning gauge = %g, want 1 (gauges: %v)", v, snap.Gauges)
	}
	if _, ok := snap.Gauges["nbody.slo.job_latency.burn_rate.1m"]; !ok {
		t.Fatalf("missing short-window burn-rate gauge; gauges: %v", snap.Gauges)
	}
	if PrometheusName("nbody.slo.job_latency.burn_rate.1m") != "nbody_slo_job_latency_burn_rate_1m" {
		t.Fatal("prometheus name mapping changed")
	}
}

func TestSLOTrackerRecoversWhenWindowRolls(t *testing.T) {
	tr, clk := newTestTracker(t, nil, SLOObjective{
		Name:    "q",
		Target:  0.5,
		Windows: []time.Duration{time.Minute},
	})
	if _, rising := tr.Observe("q", false); !rising {
		t.Fatal("first bad event should burn (bad fraction 1 over budget 0.5)")
	}
	// Roll far past the window: the bad event ages out, the alarm clears.
	clk.advance(3 * time.Minute)
	snaps := tr.Snapshot()
	if len(snaps) != 1 || snaps[0].Burning {
		t.Fatalf("alarm should clear once the window rolls: %+v", snaps)
	}
	if snaps[0].TotalBad != 1 {
		t.Fatalf("lifetime totals must survive the roll: %+v", snaps[0])
	}
	// And a fresh bad event trips a fresh rising edge.
	if _, rising := tr.Observe("q", false); !rising {
		t.Fatal("re-burn after recovery should be a rising edge again")
	}
}

func TestSLOTrackerMultiWindowNeedsBothBurning(t *testing.T) {
	tr, clk := newTestTracker(t, nil, SLOObjective{
		Name:    "m",
		Target:  0.9,
		Windows: []time.Duration{time.Minute, time.Hour},
	})
	// A long stretch of good events fills the long window.
	for i := 0; i < 200; i++ {
		clk.advance(10 * time.Second)
		tr.Observe("m", true)
	}
	// One bad event: short window burns hard (1 bad of few recent), but the
	// long window's bad fraction 1/201 over budget 0.1 is ~0.05 — not
	// burning, so the objective must not alarm.
	st, rising := tr.Observe("m", false)
	if rising || st.Burning {
		t.Fatalf("single blip must not alarm with a healthy long window: %+v", st)
	}
	if st.Windows[0].BurnRate <= st.Windows[1].BurnRate {
		t.Fatalf("short window should burn faster than long: %+v", st.Windows)
	}
}

func TestSLOTrackerNilAndUnknown(t *testing.T) {
	var tr *SLOTracker
	if _, rising := tr.Observe("x", false); rising {
		t.Fatal("nil tracker must not alarm")
	}
	if tr.Snapshot() != nil {
		t.Fatal("nil tracker snapshots must be nil")
	}
	tr2, _ := newTestTracker(t, nil, SLOObjective{Name: "a", Target: 0.9})
	if _, rising := tr2.Observe("unknown", false); rising {
		t.Fatal("unknown objective must be ignored")
	}
}

func TestFormatWindow(t *testing.T) {
	for in, want := range map[time.Duration]string{
		5 * time.Minute:  "5m",
		time.Hour:        "1h",
		30 * time.Second: "30s",
		90 * time.Second: "1m30s",
	} {
		if got := FormatWindow(in); got != want {
			t.Errorf("FormatWindow(%s) = %q, want %q", in, got, want)
		}
	}
}
