package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// SLO sentinel: rolling multi-window burn-rate evaluation over streams of
// good/bad events, the alerting shape the SRE literature converged on for
// latency objectives. Each objective declares a target good fraction (say
// 0.99); the error budget is 1-target, and the burn rate over a window is
// the window's bad fraction divided by that budget — burn rate 1 means the
// budget is being consumed exactly as provisioned, higher means faster. An
// objective is "burning" only when *every* configured window exceeds the
// burn threshold: the short window proves the problem is current, the long
// window proves it is not a blip.

// DefaultSLOWindows is the window pair used when an objective declares none:
// a short window for recency and a long one for significance.
var DefaultSLOWindows = []time.Duration{5 * time.Minute, time.Hour}

// DefaultBurnThreshold is the burn-rate alarm level when an objective
// declares none. 1.0 means "consuming the error budget as fast as it
// accrues"; production fast-burn alerts typically sit far higher, but for a
// sentinel that captures debug bundles the break-even point is the right
// default.
const DefaultBurnThreshold = 1.0

// SLOObjective declares one objective the tracker evaluates.
type SLOObjective struct {
	// Name identifies the objective in gauges and statuses.
	Name string `json:"name"`
	// Target is the required good fraction in (0,1); the error budget is
	// 1-Target.
	Target float64 `json:"target"`
	// Windows are the rolling evaluation windows (DefaultSLOWindows when
	// empty). The objective burns only when every window's burn rate
	// exceeds BurnThreshold.
	Windows []time.Duration `json:"-"`
	// BurnThreshold is the burn-rate alarm level (DefaultBurnThreshold
	// when zero).
	BurnThreshold float64 `json:"burn_threshold,omitempty"`
}

// Validate checks the objective's declaration.
func (o SLOObjective) Validate() error {
	if o.Name == "" {
		return fmt.Errorf("obs: SLO objective with no name")
	}
	if o.Target <= 0 || o.Target >= 1 {
		return fmt.Errorf("obs: SLO %q target %g must be in (0,1)", o.Name, o.Target)
	}
	if o.BurnThreshold < 0 {
		return fmt.Errorf("obs: SLO %q burn threshold %g must be non-negative", o.Name, o.BurnThreshold)
	}
	for _, w := range o.Windows {
		if w <= 0 {
			return fmt.Errorf("obs: SLO %q window %s must be positive", o.Name, w)
		}
	}
	return nil
}

// SLOWindowStatus is one window's view of an objective.
type SLOWindowStatus struct {
	WindowMS int64 `json:"window_ms"`
	Good     int64 `json:"good"`
	Bad      int64 `json:"bad"`
	// BadFraction is Bad/(Good+Bad); 0 for an empty window.
	BadFraction float64 `json:"bad_fraction"`
	// BurnRate is BadFraction over the error budget (1-target).
	BurnRate float64 `json:"burn_rate"`
}

// SLOStatus is a point-in-time evaluation of one objective.
type SLOStatus struct {
	Name          string            `json:"name"`
	Target        float64           `json:"target"`
	BurnThreshold float64           `json:"burn_threshold"`
	Windows       []SLOWindowStatus `json:"windows"`
	// Burning reports that every window's burn rate exceeds the threshold.
	Burning bool `json:"burning"`
	// BudgetRemaining is the unspent error budget over the longest window:
	// 1 - badFraction/budget (negative when overspent, 1 when clean).
	BudgetRemaining float64 `json:"budget_remaining"`
	// TotalGood/TotalBad count every event ever observed (not windowed).
	TotalGood int64 `json:"total_good"`
	TotalBad  int64 `json:"total_bad"`
}

// sloBucket is one time slice of an objective's event history.
type sloBucket struct {
	good, bad int64
}

// sloState is the tracker's per-objective rolling history: a ring of
// fixed-width time buckets covering the longest window.
type sloState struct {
	obj       SLOObjective
	bucketDur time.Duration
	buckets   []sloBucket
	head      int       // ring index of the bucket containing headStart
	headStart time.Time // start instant of the head bucket
	burning   bool
	totalGood int64
	totalBad  int64

	gBurn   []*Gauge // per window, same order as obj.Windows
	gBudget *Gauge
	gAlarm  *Gauge
}

// SLOTracker evaluates a set of objectives over rolling windows. All methods
// are safe for concurrent use; a nil *SLOTracker is a no-op, matching the
// package's disabled-telemetry convention.
type SLOTracker struct {
	mu   sync.Mutex
	objs map[string]*sloState
	// Now is the tracker's clock, replaceable by tests; time.Now when nil.
	Now func() time.Time
}

// sloBucketCount is the ring resolution: the longest window is divided into
// this many slices (plus one head bucket in flight).
const sloBucketCount = 60

// NewSLOTracker builds a tracker for the given objectives, registering the
// per-objective gauges (nbody.slo.<name>.*) on reg when it is non-nil.
func NewSLOTracker(objectives []SLOObjective, reg *Registry) (*SLOTracker, error) {
	t := &SLOTracker{objs: make(map[string]*sloState, len(objectives))}
	for _, obj := range objectives {
		if err := obj.Validate(); err != nil {
			return nil, err
		}
		if _, dup := t.objs[obj.Name]; dup {
			return nil, fmt.Errorf("obs: duplicate SLO objective %q", obj.Name)
		}
		if len(obj.Windows) == 0 {
			obj.Windows = append([]time.Duration(nil), DefaultSLOWindows...)
		}
		sort.Slice(obj.Windows, func(i, j int) bool { return obj.Windows[i] < obj.Windows[j] })
		if obj.BurnThreshold == 0 {
			obj.BurnThreshold = DefaultBurnThreshold
		}
		longest := obj.Windows[len(obj.Windows)-1]
		bucketDur := longest / sloBucketCount
		if bucketDur <= 0 {
			bucketDur = time.Millisecond
		}
		st := &sloState{
			obj:       obj,
			bucketDur: bucketDur,
			buckets:   make([]sloBucket, sloBucketCount+1),
		}
		prefix := "nbody.slo." + obj.Name
		for _, w := range obj.Windows {
			st.gBurn = append(st.gBurn, reg.Gauge(prefix+".burn_rate."+FormatWindow(w)))
		}
		st.gBudget = reg.Gauge(prefix + ".budget_remaining")
		st.gAlarm = reg.Gauge(prefix + ".burning")
		st.gBudget.Set(1)
		t.objs[obj.Name] = st
	}
	return t, nil
}

// FormatWindow renders a window duration compactly for metric names: 5m0s
// becomes "5m", 1h0m0s becomes "1h".
func FormatWindow(d time.Duration) string {
	s := d.String()
	for _, zero := range []string{"0s", "0m"} {
		trimmed := strings.TrimSuffix(s, zero)
		// Only drop a zero component, never digits of a real one ("30s").
		if trimmed == s || (trimmed != "" && trimmed[len(trimmed)-1] >= '0' && trimmed[len(trimmed)-1] <= '9') {
			break
		}
		s = trimmed
	}
	if s == "" {
		s = d.String()
	}
	return s
}

// now returns the tracker's clock reading.
func (t *SLOTracker) now() time.Time {
	if t.Now != nil {
		return t.Now()
	}
	return time.Now()
}

// advance rotates st's ring so the head bucket contains at.
func (st *sloState) advance(at time.Time) {
	if st.headStart.IsZero() {
		st.headStart = at.Truncate(st.bucketDur)
		return
	}
	steps := int(at.Sub(st.headStart) / st.bucketDur)
	if steps <= 0 {
		return
	}
	if steps > len(st.buckets) {
		steps = len(st.buckets)
	}
	for i := 0; i < steps; i++ {
		st.head = (st.head + 1) % len(st.buckets)
		st.buckets[st.head] = sloBucket{}
	}
	st.headStart = st.headStart.Add(time.Duration(steps) * st.bucketDur)
}

// window sums the buckets covering the trailing window w.
func (st *sloState) window(w time.Duration) (good, bad int64) {
	n := int(w / st.bucketDur)
	if n < 1 {
		n = 1
	}
	if n > len(st.buckets) {
		n = len(st.buckets)
	}
	for i := 0; i < n; i++ {
		b := st.buckets[(st.head-i+len(st.buckets))%len(st.buckets)]
		good += b.good
		bad += b.bad
	}
	return good, bad
}

// evaluate recomputes the objective's status and updates its gauges.
// Callers hold the tracker lock.
func (st *sloState) evaluate() SLOStatus {
	budget := 1 - st.obj.Target
	s := SLOStatus{
		Name:            st.obj.Name,
		Target:          st.obj.Target,
		BurnThreshold:   st.obj.BurnThreshold,
		TotalGood:       st.totalGood,
		TotalBad:        st.totalBad,
		BudgetRemaining: 1,
	}
	burning := true
	for i, w := range st.obj.Windows {
		good, bad := st.window(w)
		ws := SLOWindowStatus{WindowMS: w.Milliseconds(), Good: good, Bad: bad}
		if total := good + bad; total > 0 {
			ws.BadFraction = float64(bad) / float64(total)
			ws.BurnRate = ws.BadFraction / budget
		}
		if ws.BurnRate <= st.obj.BurnThreshold || good+bad == 0 {
			burning = false
		}
		st.gBurn[i].Set(ws.BurnRate)
		s.Windows = append(s.Windows, ws)
	}
	if n := len(s.Windows); n > 0 {
		s.BudgetRemaining = 1 - s.Windows[n-1].BadFraction/budget
	}
	s.Burning = burning
	st.gBudget.Set(s.BudgetRemaining)
	if burning {
		st.gAlarm.Set(1)
	} else {
		st.gAlarm.Set(0)
	}
	return s
}

// Observe records one event for the named objective and re-evaluates it.
// It returns the objective's status and whether this observation *newly*
// tripped the burn alarm (a rising edge: the caller typically captures a
// debug bundle on it). Unknown objectives are ignored.
func (t *SLOTracker) Observe(objective string, good bool) (SLOStatus, bool) {
	if t == nil {
		return SLOStatus{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	st, ok := t.objs[objective]
	if !ok {
		return SLOStatus{}, false
	}
	st.advance(t.now())
	if good {
		st.buckets[st.head].good++
		st.totalGood++
	} else {
		st.buckets[st.head].bad++
		st.totalBad++
	}
	s := st.evaluate()
	rising := s.Burning && !st.burning
	st.burning = s.Burning
	return s, rising
}

// Snapshot re-evaluates every objective at the current instant and returns
// the statuses sorted by name. Nil-safe (returns nil).
func (t *SLOTracker) Snapshot() []SLOStatus {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SLOStatus, 0, len(t.objs))
	for _, st := range t.objs {
		st.advance(t.now())
		s := st.evaluate()
		st.burning = s.Burning
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
