package gpusim

import (
	"fmt"
	"sort"

	"repro/internal/obs"
)

// TraceEvents converts the modelled schedules of the given launches into
// Chrome trace events on the device described by cfg: one trace *process*
// per Result (pid = basePID+i, named after the kernel), one *thread* per
// compute unit, one slice per work-group annotated with the group's bounding
// resource and cycle count. Results are laid out sequentially on the
// timeline, as an in-order queue would execute them. Metadata
// (process_name / thread_name) events are included so multi-kernel traces
// stay legible in Perfetto.
func TraceEvents(cfg DeviceConfig, basePID int, results ...*Result) []obs.TraceEvent {
	var events []obs.TraceEvent
	usPerCycle := 1e6 / cfg.ClockHz
	var offset float64
	for ri, r := range results {
		pid := basePID + ri
		events = append(events, obs.ProcessNameEvent(pid,
			fmt.Sprintf("device: %s (modelled)", r.Kernel)))
		sched := append([]ScheduledGroup(nil), r.Timing.Schedule...)
		sort.Slice(sched, func(a, b int) bool {
			if sched[a].CU != sched[b].CU {
				return sched[a].CU < sched[b].CU
			}
			return sched[a].StartCycle < sched[b].StartCycle
		})
		cus := map[int]bool{}
		for _, sg := range sched {
			if !cus[sg.CU] {
				cus[sg.CU] = true
				events = append(events, obs.ThreadNameEvent(pid, sg.CU,
					fmt.Sprintf("CU %d", sg.CU)))
			}
			events = append(events, obs.TraceEvent{
				Name:     fmt.Sprintf("%s g%d", r.Kernel, sg.Group),
				Category: sg.BoundedBy,
				Phase:    "X",
				TS:       offset + sg.StartCycle*usPerCycle,
				Dur:      sg.GroupCycles * usPerCycle,
				PID:      pid,
				TID:      sg.CU,
				Args: map[string]any{
					"bound":  sg.BoundedBy,
					"cycles": sg.GroupCycles,
					"flops":  r.Groups[sg.Group].Flops,
				},
			})
		}
		offset += r.Timing.Cycles * usPerCycle
	}
	return events
}
