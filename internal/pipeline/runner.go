package pipeline

import "fmt"

// Mode selects how consecutive force evaluations are scheduled against each
// other.
type Mode int

const (
	// Serial runs each step's host and device chains back to back — the
	// paper's "total time" accounting.
	Serial Mode = iota
	// Overlap double-buffers: step k+1's host chain (tree + list build)
	// runs while step k's device chain (transfers + kernels) is in flight,
	// so in steady state the slower chain sets the per-step pace — the
	// paper's implementation note (4).
	Overlap
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == Overlap {
		return "overlap"
	}
	return "serial"
}

// ParseMode parses "serial" or "overlap".
func ParseMode(s string) (Mode, error) {
	switch s {
	case "serial":
		return Serial, nil
	case "overlap":
		return Overlap, nil
	}
	return Serial, fmt.Errorf("pipeline: unknown mode %q (serial, overlap)", s)
}

// Runner accumulates the executed cross-step timeline of a sequence of
// force evaluations. Each Account call places one step's host chain and
// device chain on the timeline under the runner's mode; ExecutedSeconds is
// the resulting end-to-end time. All inputs are modelled durations, so the
// executed schedule is deterministic.
//
// The overlap recurrence is the classic two-stage pipeline: a step's host
// chain starts as soon as the host is free (the previous step's host chain
// ended); its device chain starts when both the host chain has finished and
// the device has drained the previous step. In steady state each step
// advances the timeline by max(host, device).
type Runner struct {
	Mode Mode

	hostFree    float64 // when the host can start the next step's build
	devFree     float64 // when the device can start the next step's chain
	windowStart float64
}

// end returns the current timeline horizon.
func (r *Runner) end() float64 {
	if r.hostFree > r.devFree {
		return r.hostFree
	}
	return r.devFree
}

// Account places one step (hostSeconds of CPU-side build work, devSeconds
// of transfers + kernels) on the executed timeline and returns the seconds
// the timeline advanced — the step's executed cost. A serial step returns
// hostSeconds + devSeconds, whose bits do not depend on earlier steps.
func (r *Runner) Account(hostSeconds, devSeconds float64) float64 {
	prev := r.end()
	if r.Mode == Serial {
		hostDone := prev + hostSeconds
		r.hostFree = hostDone
		r.devFree = hostDone + devSeconds
		return hostSeconds + devSeconds
	} else {
		hostDone := r.hostFree + hostSeconds
		r.hostFree = hostDone
		devStart := hostDone
		if r.devFree > devStart {
			devStart = r.devFree
		}
		r.devFree = devStart + devSeconds
	}
	return r.end() - prev
}

// AccountSchedule places one evaluation's executed schedule on the timeline.
func (r *Runner) AccountSchedule(s *Schedule) float64 {
	return r.Account(s.HostSeconds(), s.DeviceSeconds())
}

// Join inserts a pipeline barrier: the next step's host work waits for all
// in-flight device work, as at a snapshot, a window boundary, or any host
// read-back of the full state.
func (r *Runner) Join() {
	e := r.end()
	r.hostFree, r.devFree = e, e
}

// BeginWindow marks the start of a window of steps whose executed time
// EndWindow will report.
func (r *Runner) BeginWindow() { r.windowStart = r.end() }

// EndWindow joins the pipeline and returns the executed seconds of the
// window opened by BeginWindow.
func (r *Runner) EndWindow() float64 {
	r.Join()
	d := r.end() - r.windowStart
	r.windowStart = r.end()
	return d
}

// ExecutedSeconds returns the end-to-end executed time of everything
// accounted so far.
func (r *Runner) ExecutedSeconds() float64 { return r.end() }
