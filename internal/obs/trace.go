package obs

import (
	"encoding/json"
	"io"
	"sort"
)

// TraceEvent is one entry of the Chrome trace-event format, viewable in
// chrome://tracing or Perfetto. Phase "X" is a complete event with explicit
// duration; phase "M" is metadata (process_name / thread_name), which is how
// multi-process traces become legible.
type TraceEvent struct {
	Name     string         `json:"name"`
	Category string         `json:"cat,omitempty"`
	Phase    string         `json:"ph"`
	TS       float64        `json:"ts"`  // microseconds
	Dur      float64        `json:"dur"` // microseconds
	PID      int            `json:"pid"`
	TID      int            `json:"tid"`
	Args     map[string]any `json:"args,omitempty"`
}

// Reserved trace process ids of the merged export: real host time, the
// modelled queue pipeline, then one process per device kernel launch.
const (
	PIDHost         = 1
	PIDPipeline     = 2
	PIDDeviceBase   = 3
	processHostName = "host (wall clock)"
	processPipeName = "queue pipeline (modelled)"
)

// ProcessNameEvent returns the metadata event naming a trace process.
func ProcessNameEvent(pid int, name string) TraceEvent {
	return TraceEvent{
		Name:  "process_name",
		Phase: "M",
		PID:   pid,
		Args:  map[string]any{"name": name},
	}
}

// ThreadNameEvent returns the metadata event naming a trace thread.
func ThreadNameEvent(pid, tid int, name string) TraceEvent {
	return TraceEvent{
		Name:  "thread_name",
		Phase: "M",
		PID:   pid,
		TID:   tid,
		Args:  map[string]any{"name": name},
	}
}

// TraceEvents converts the tracer's spans, oldest first, into Chrome trace
// events: wall-clock spans under PIDHost, modelled spans under PIDPipeline,
// one thread per distinct track (alphabetical tids, named via metadata
// events).
func (t *Tracer) TraceEvents() []TraceEvent {
	spans := t.Spans()
	if len(spans) == 0 {
		return nil
	}
	// Deterministic track→tid assignment per domain.
	trackNames := map[Domain][]string{}
	seen := map[Domain]map[string]bool{}
	for _, sp := range spans {
		track := sp.Track
		if track == "" {
			track = sp.Category
		}
		if seen[sp.Domain] == nil {
			seen[sp.Domain] = map[string]bool{}
		}
		if !seen[sp.Domain][track] {
			seen[sp.Domain][track] = true
			trackNames[sp.Domain] = append(trackNames[sp.Domain], track)
		}
	}
	pidOf := map[Domain]int{DomainWall: PIDHost, DomainModelled: PIDPipeline}
	tidOf := map[Domain]map[string]int{}
	var events []TraceEvent
	for dom, tracks := range trackNames {
		sort.Strings(tracks)
		tidOf[dom] = map[string]int{}
		name := processHostName
		if dom == DomainModelled {
			name = processPipeName
		}
		events = append(events, ProcessNameEvent(pidOf[dom], name))
		for i, track := range tracks {
			tidOf[dom][track] = i
			events = append(events, ThreadNameEvent(pidOf[dom], i, track))
		}
	}
	for _, sp := range spans {
		track := sp.Track
		if track == "" {
			track = sp.Category
		}
		args := sp.Args
		if sp.TraceID != "" {
			// Copy before augmenting: the span's own Args map must not grow
			// trace keys behind the recorder's back.
			args = make(map[string]any, len(sp.Args)+3)
			for k, v := range sp.Args {
				args[k] = v
			}
			args["trace_id"] = sp.TraceID
			if sp.SpanID != "" {
				args["span_id"] = sp.SpanID
			}
			if sp.ParentID != "" {
				args["parent_id"] = sp.ParentID
			}
		}
		events = append(events, TraceEvent{
			Name:     sp.Name,
			Category: sp.Category,
			Phase:    "X",
			TS:       sp.StartUS,
			Dur:      sp.DurUS,
			PID:      pidOf[sp.Domain],
			TID:      tidOf[sp.Domain][track],
			Args:     args,
		})
	}
	return events
}

// WriteChromeTrace writes events as a Chrome trace JSON document. The
// otherData map (may be nil) is attached verbatim for provenance.
func WriteChromeTrace(w io.Writer, otherData map[string]any, events []TraceEvent) error {
	if events == nil {
		events = []TraceEvent{}
	}
	doc := map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ns",
	}
	if len(otherData) > 0 {
		doc["otherData"] = otherData
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}
