// Package pipeline is the staged execution layer between the GPU plans of
// internal/core and the command queues of internal/cl. A plan describes one
// force evaluation as a Graph of named stages with explicit data
// dependencies; Execute runs the stages in dependency order on a queue,
// threading the cl events through so every enqueue carries its real wait
// list, and records the executed schedule (per-stage start/end on the
// modelled timeline) that the perf layer attributes instead of re-deriving
// stage boundaries from span names.
//
// The layer exists to make the paper's central mechanism — host/device
// overlap (implementation note 4: while the GPU evaluates step t's forces,
// the CPU builds step t+1's tree and lists) — something the system
// *executes* rather than something a formula predicts. Within one
// evaluation the Graph captures which stages may overlap; across
// evaluations the Runner double-buffers the host chain of step k+1 against
// the device chain of step k. Because every duration comes from the gpusim
// cost model, the overlapped schedule is deterministic and reproducible.
package pipeline

import (
	"fmt"

	"repro/internal/cl"
	"repro/internal/gpusim"
	"repro/internal/obs"
)

// Kind classifies a stage for time attribution. The kinds mirror the
// paper's per-step breakdown: host-side tree build and interaction-list
// construction, uploads, the force kernel (plus any reduction), and the
// result download.
type Kind int

// Stage kinds, in pipeline execution order.
const (
	Tree Kind = iota
	List
	Host // other host-side work
	Upload
	Kernel
	Reduce
	Download
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Tree:
		return "tree"
	case List:
		return "list"
	case Host:
		return "host"
	case Upload:
		return "upload"
	case Kernel:
		return "kernel"
	case Reduce:
		return "reduce"
	case Download:
		return "download"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// HostSide reports whether the stage runs on the CPU side of the
// double-buffered pipeline. Transfers ride with the device side: they must
// complete before the kernel and cannot overlap the next step's host work.
func (k Kind) HostSide() bool { return k == Tree || k == List || k == Host }

// ExecCtx is what a stage's Run receives: the queue to enqueue on and the
// completed events of the stage's declared dependencies, in declaration
// order, ready to pass as the enqueue wait list.
type ExecCtx struct {
	Queue *cl.Queue
	Deps  []*cl.Event
}

// Stage is one named node of the execution graph. Run enqueues the stage's
// command(s) and returns the event that marks the stage complete; a nil
// event is allowed for stages that turn out to be no-ops.
type Stage struct {
	Name string
	Kind Kind
	// Deps names the stages whose events this stage waits on.
	Deps []string
	Run  func(ec *ExecCtx) (*cl.Event, error)
}

// Graph is a declarative DAG of stages. Build it with Add (errors are
// collected and surfaced by Validate/Execute, so construction chains
// fluently) and run it with Execute.
type Graph struct {
	name   string
	stages []Stage
	index  map[string]int
	err    error
}

// NewGraph creates an empty graph named for its plan.
func NewGraph(name string) *Graph {
	return &Graph{name: name, index: make(map[string]int)}
}

// Add appends a stage and returns the graph. A duplicate name, empty name,
// or nil Run is recorded as a construction error.
func (g *Graph) Add(st Stage) *Graph {
	if g.err != nil {
		return g
	}
	switch {
	case st.Name == "":
		g.err = fmt.Errorf("pipeline: %s: stage with empty name", g.name)
	case st.Run == nil:
		g.err = fmt.Errorf("pipeline: %s: stage %q has no Run", g.name, st.Name)
	default:
		if _, dup := g.index[st.Name]; dup {
			g.err = fmt.Errorf("pipeline: %s: duplicate stage %q", g.name, st.Name)
			return g
		}
		g.index[st.Name] = len(g.stages)
		g.stages = append(g.stages, st)
	}
	return g
}

// Validate checks the graph (construction errors, unknown dependencies,
// cycles) and returns a deterministic topological order: among ready
// stages, insertion order breaks ties, so repeated executions enqueue
// identically.
func (g *Graph) Validate() ([]int, error) {
	if g.err != nil {
		return nil, g.err
	}
	indeg := make([]int, len(g.stages))
	for i := range g.stages {
		for _, d := range g.stages[i].Deps {
			if _, ok := g.index[d]; !ok {
				return nil, fmt.Errorf("pipeline: %s: stage %q depends on unknown stage %q",
					g.name, g.stages[i].Name, d)
			}
			indeg[i]++
		}
	}
	// Kahn's algorithm with an insertion-ordered frontier.
	order := make([]int, 0, len(g.stages))
	done := make([]bool, len(g.stages))
	for len(order) < len(g.stages) {
		progressed := false
		for i := range g.stages {
			if done[i] || indeg[i] != 0 {
				continue
			}
			done[i] = true
			order = append(order, i)
			progressed = true
			for j := range g.stages {
				if done[j] {
					continue
				}
				for _, d := range g.stages[j].Deps {
					if g.index[d] == i {
						indeg[j]--
					}
				}
			}
		}
		if !progressed {
			return nil, fmt.Errorf("pipeline: %s: dependency cycle among stages", g.name)
		}
	}
	return order, nil
}

// Execute runs the stages in dependency order on the queue, passing each
// stage the events of its dependencies, and returns the executed schedule.
// Per-stage spans are reported to the observer's modelled timeline (category
// "stage") so traces show the stage structure above the raw commands.
func (g *Graph) Execute(q *cl.Queue, o *obs.Obs) (*Schedule, error) {
	order, err := g.Validate()
	if err != nil {
		return nil, err
	}
	sched := &Schedule{Graph: g.name}
	events := make([]*cl.Event, len(g.stages))
	for _, i := range order {
		st := &g.stages[i]
		ec := &ExecCtx{Queue: q}
		depEnd := 0.0
		for _, d := range st.Deps {
			ev := events[g.index[d]]
			ec.Deps = append(ec.Deps, ev)
			if ev != nil && ev.End > depEnd {
				depEnd = ev.End
			}
		}
		ev, err := st.Run(ec)
		if err != nil {
			return nil, fmt.Errorf("pipeline: %s: stage %q: %w", g.name, st.Name, err)
		}
		events[i] = ev
		span := StageSpan{Stage: st.Name, Kind: st.Kind, Start: depEnd, End: depEnd, Event: ev}
		if ev != nil {
			span.Start, span.End = ev.Start, ev.End
		}
		sched.Spans = append(sched.Spans, span)
		if o != nil {
			o.Counter("pipeline.stages").Inc()
			o.Tracer().AddModelled("stage:"+st.Name, "stage", g.name,
				span.Start, span.End-span.Start, map[string]any{"kind": st.Kind.String()})
		}
	}
	return sched, nil
}

// StageSpan is one executed stage: where it landed on the queue's modelled
// timeline and the event that completed it.
type StageSpan struct {
	Stage string
	Kind  Kind
	Start float64 // seconds on the queue timeline
	End   float64
	Event *cl.Event
}

// Seconds returns the stage duration.
func (s StageSpan) Seconds() float64 { return s.End - s.Start }

// Schedule is the executed record of one Graph run: what actually happened,
// stage by stage, on the modelled timeline. The perf layer attributes this
// directly instead of re-classifying raw spans by name.
type Schedule struct {
	Graph string
	Spans []StageSpan

	// HostWallSeconds is the *measured* wall-clock time of the host-side
	// build that produced this evaluation's inputs (tree + walk/list
	// construction + flattening on the real machine), as opposed to the
	// modelled Tree/List stage spans above. Plans stamp it after Execute;
	// engine retention accumulates it, so perf attribution can report the
	// real host stage next to the modelled one.
	HostWallSeconds float64
}

// HostSeconds sums the stages on the CPU side of the pipeline.
func (s *Schedule) HostSeconds() float64 {
	var t float64
	for _, sp := range s.Spans {
		if sp.Kind.HostSide() {
			t += sp.Seconds()
		}
	}
	return t
}

// DeviceSeconds sums the device-side stages (uploads, kernels, reductions,
// downloads).
func (s *Schedule) DeviceSeconds() float64 {
	var t float64
	for _, sp := range s.Spans {
		if !sp.Kind.HostSide() {
			t += sp.Seconds()
		}
	}
	return t
}

// MakespanSeconds is the executed timeline span of this schedule (latest
// stage end minus earliest stage start).
func (s *Schedule) MakespanSeconds() float64 {
	if len(s.Spans) == 0 {
		return 0
	}
	start, end := s.Spans[0].Start, s.Spans[0].End
	for _, sp := range s.Spans[1:] {
		if sp.Start < start {
			start = sp.Start
		}
		if sp.End > end {
			end = sp.End
		}
	}
	return end - start
}

// Launches returns the kernel launch results of the schedule in execution
// order, for roofline reports and trace export.
func (s *Schedule) Launches() []*gpusim.Result {
	var rs []*gpusim.Result
	for _, sp := range s.Spans {
		if sp.Event != nil && sp.Event.Result != nil {
			rs = append(rs, sp.Event.Result)
		}
	}
	return rs
}
