// Package serve exposes the simulation engines as a long-lived HTTP/JSON
// job service: clients POST simulation jobs (an initial-conditions spec or
// explicit bodies, an execution plan, a step budget), the service schedules
// them across a pool of engines sharded over modelled devices, and streams
// snapshots back as the integrator records them.
//
// The host-side scheduler treats the GPUs exactly the way the multiple-walk
// literature does (Hamada et al. SC'09; Nyland et al., GPU Gems 3): devices
// are shared resources fed by a queue with admission control — a full queue
// turns new work away (HTTP 429 + Retry-After) instead of letting latency
// grow without bound, jobs carry deadlines and can be cancelled mid-run,
// an engine that fails a job is quarantined and the job retried on another,
// and SIGTERM drains in-flight work before the process exits.
package serve

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/body"
	"repro/internal/core"
	"repro/internal/ic"
	"repro/internal/integrate"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/sim"
	"repro/internal/vec"
)

// Schema versions of the service's three JSON documents. Bump on breaking
// layout changes; decoders reject documents from a newer schema than they
// were built with.
const (
	// JobSchemaVersion covers JobSpec (requests) and JobStatus (responses).
	// Version 2 replaced the v1 workload/bodies pair with the scenario API
	// and added the Hermite block-timestep fields; v1 documents are upgraded
	// on read (see DecodeJobSpec).
	JobSchemaVersion = 2
	// SnapshotSchemaVersion covers the SnapshotRecord stream lines.
	SnapshotSchemaVersion = 1
)

// ScenarioSpec names the job's initial conditions: a generated scenario from
// the library in internal/ic (plummer, hernquist, cube, disk, collision) with
// its per-family parameters, or "explicit" with the bodies supplied inline.
type ScenarioSpec struct {
	// Name is one of plummer, hernquist, cube, disk, collision, explicit.
	Name string `json:"name"`
	// N is the body count (generated scenarios; ignored for explicit).
	N int `json:"n,omitempty"`
	// Seed selects the realization (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// Scale is the disk's radial scale length (default 1.0).
	Scale float64 `json:"scale,omitempty"`
	// Side is the cube's edge length (default 2.0).
	Side float64 `json:"side,omitempty"`
	// Separation and Speed parameterize the collision scenario: the initial
	// cluster separation (default 4.0) and closing speed (default 0.5).
	Separation float64 `json:"separation,omitempty"`
	Speed      float64 `json:"speed,omitempty"`
	// Bodies supplies the initial conditions for the explicit scenario.
	Bodies []BodySpec `json:"bodies,omitempty"`
}

// BodySpec is one explicitly uploaded body.
type BodySpec struct {
	Pos  [3]float32 `json:"pos"`
	Vel  [3]float32 `json:"vel"`
	Mass float32    `json:"mass"`
}

// ToleranceSpec configures the conservation watchdog for a job. Zero fields
// disable the corresponding check.
type ToleranceSpec struct {
	// Energy halts the run when |E-E0|/|E0| exceeds it.
	Energy float64 `json:"energy,omitempty"`
	// Momentum halts the run when ||P-P0|| exceeds it.
	Momentum float64 `json:"momentum,omitempty"`
}

// JobSpec is the body of POST /v1/jobs: one simulation job. The scenario
// supplies the initial conditions — a named generator from the library or
// explicit bodies. v1 documents (workload/bodies in place of scenario) are
// upgraded on read and remain fully supported.
type JobSpec struct {
	SchemaVersion int `json:"schema_version"`
	// Plan is the execution plan (core.PlanNames: i-parallel, j-parallel,
	// w-parallel, jw-parallel, jw-parallel-xK, ...).
	Plan string `json:"plan"`
	// Scenario is the initial-conditions scenario.
	Scenario *ScenarioSpec `json:"scenario,omitempty"`
	// Steps and DT drive the integrator.
	Steps int     `json:"steps"`
	DT    float64 `json:"dt"`
	// SnapshotEvery records (and streams) diagnostics every k steps; 0
	// records the start and end only.
	SnapshotEvery int `json:"snapshot_every,omitempty"`
	// Integrator is one of integrate.Names: euler, leapfrog (default),
	// verlet, hermite.
	Integrator string `json:"integrator,omitempty"`
	// Theta and Eps configure the force calculation (defaults 0.6, 0.05).
	Theta float64 `json:"theta,omitempty"`
	Eps   float64 `json:"eps,omitempty"`
	// DTMin, DTMax and Eta configure the Hermite block-timestep hierarchy
	// (integrate.Hermite fields of the same names); they require
	// integrator "hermite".
	DTMin float64 `json:"dt_min,omitempty"`
	DTMax float64 `json:"dt_max,omitempty"`
	Eta   float64 `json:"eta,omitempty"`
	// Pipeline is serial (default) or overlap; PipelineWindow groups steps
	// per window under overlap (default 8).
	Pipeline       string `json:"pipeline,omitempty"`
	PipelineWindow int    `json:"pipeline_window,omitempty"`
	// TimeoutMS bounds the job's run time once it starts executing; 0 uses
	// the service default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Tolerances aborts the run when conservation breaks; when absent, the
	// named scenarios install their library presets (sim.ScenarioWatchdog).
	Tolerances *ToleranceSpec `json:"tolerances,omitempty"`
}

// JobState is the lifecycle state of a job.
type JobState string

// Job lifecycle: queued -> running -> one of the three terminal states.
// A cancelled queued job never runs.
const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// JobStatus is the service's description of a job (GET /v1/jobs/{id}).
type JobStatus struct {
	SchemaVersion int      `json:"schema_version"`
	ID            string   `json:"id"`
	State         JobState `json:"state"`
	// TraceID correlates everything the job produced: the same 32-hex id
	// appears in the daemon's log lines, every streamed SnapshotRecord, the
	// job's spans in the merged Chrome trace, and the flight recorder. It is
	// minted at submit, or adopted from the client's traceparent header.
	TraceID string `json:"trace_id,omitempty"`
	Plan    string `json:"plan"`
	N       int    `json:"n"`
	Steps   int    `json:"steps"`
	// Engine is the pool slot the job ran on (-1 while queued).
	Engine int `json:"engine"`
	// EngineCaps lists the engine's optional capabilities (sim.Caps).
	EngineCaps string `json:"engine_caps,omitempty"`
	// Retries counts engine-failure retries consumed so far.
	Retries int `json:"retries"`
	// Snapshots is the number of snapshot records streamed so far.
	Snapshots int    `json:"snapshots"`
	Error     string `json:"error,omitempty"`
	// Unix milliseconds; zero when the phase has not been reached.
	SubmittedAtMS int64 `json:"submitted_at_ms"`
	StartedAtMS   int64 `json:"started_at_ms,omitempty"`
	FinishedAtMS  int64 `json:"finished_at_ms,omitempty"`
	// Flight is the job's flight-recorder dump — the last K lifecycle
	// events/spans — attached when the job fails so the failure arrives with
	// its own history (it is also always retrievable, for any terminal or
	// live state, at GET /v1/jobs/{id}/flight).
	Flight []obs.FlightEvent `json:"flight,omitempty"`
	// Perf is the compact perf-attribution rollup, set once an attempt has
	// finished on an engine that retains executed schedules (the full
	// breakdown lives at GET /v1/jobs/{id}/perf).
	Perf *JobPerfSummary `json:"perf,omitempty"`
}

// SnapshotJSON is one sim.Snapshot in wire form.
type SnapshotJSON struct {
	Step                  int        `json:"step"`
	Time                  float64    `json:"time"`
	Kinetic               float64    `json:"kinetic"`
	Potential             float64    `json:"potential"`
	Total                 float64    `json:"total"`
	Momentum              [3]float64 `json:"momentum"`
	VirialRatio           float64    `json:"virial_ratio"`
	Interactions          int64      `json:"interactions"`
	WallSeconds           float64    `json:"wall_seconds"`
	EngineSeconds         float64    `json:"engine_seconds,omitempty"`
	EngineExecutedSeconds float64    `json:"engine_executed_seconds,omitempty"`
}

// snapshotJSON converts a sim.Snapshot to wire form.
func snapshotJSON(sn sim.Snapshot) *SnapshotJSON {
	return &SnapshotJSON{
		Step:                  sn.Step,
		Time:                  sn.Time,
		Kinetic:               sn.Kinetic,
		Potential:             sn.Potential,
		Total:                 sn.Total,
		Momentum:              [3]float64{sn.Momentum.X, sn.Momentum.Y, sn.Momentum.Z},
		VirialRatio:           sn.VirialRatio,
		Interactions:          sn.Interactions,
		WallSeconds:           sn.WallSeconds,
		EngineSeconds:         sn.EngineSeconds,
		EngineExecutedSeconds: sn.EngineExecutedSeconds,
	}
}

// SnapshotRecord is one line of the GET /v1/jobs/{id}/stream NDJSON stream:
// either a snapshot (Snapshot non-nil) or the final record (Final true,
// State terminal, Error set when the job failed). A job that retried on a
// fresh engine restarts its stream from step 0 with increasing Seq.
type SnapshotRecord struct {
	SchemaVersion int    `json:"schema_version"`
	JobID         string `json:"job_id"`
	// TraceID is the job's trace id (JobStatus.TraceID), stamped on every
	// record so a stream capture alone is joinable with logs and traces.
	TraceID  string        `json:"trace_id,omitempty"`
	Seq      int           `json:"seq"`
	Snapshot *SnapshotJSON `json:"snapshot,omitempty"`
	Final    bool          `json:"final,omitempty"`
	State    JobState      `json:"state,omitempty"`
	Error    string        `json:"error,omitempty"`
}

// Limits bounds what a single job may ask for — the service-side half of
// admission control (the queue bound is the other half).
type Limits struct {
	// MaxBodies and MaxSteps cap the job size; zero means unlimited.
	MaxBodies int
	MaxSteps  int
}

// scenarioNames lists the generated scenarios (sim.ScenarioNames) plus the
// explicit-bodies escape hatch, for validation messages.
func scenarioNames() []string {
	return append(sim.ScenarioNames(), "explicit")
}

// validScenarioName reports whether name is a known scenario.
func validScenarioName(name string) bool {
	for _, known := range scenarioNames() {
		if name == known {
			return true
		}
	}
	return false
}

// Validate checks the spec against the schema and the service limits,
// filling nothing in: defaults are applied at run time so the stored spec
// stays what the client sent. Every error names the offending JSON field.
func (s *JobSpec) Validate(lim Limits) error {
	if err := checkSchemaVersion(s.SchemaVersion); err != nil {
		return err
	}
	if s.Plan == "" {
		return fmt.Errorf("plan: missing")
	}
	// Checking at admission keeps a bad plan name from quarantining every
	// engine slot while the retries burn through the pool.
	if err := core.CheckPlanName(s.Plan); err != nil {
		return fmt.Errorf("plan: %w", err)
	}
	if s.Scenario == nil {
		return fmt.Errorf("scenario: missing")
	}
	sc := s.Scenario
	if !validScenarioName(sc.Name) {
		return fmt.Errorf("scenario.name: unknown scenario %q (known: %v)", sc.Name, scenarioNames())
	}
	n := sc.N
	if sc.Name == "explicit" {
		if len(sc.Bodies) == 0 {
			return fmt.Errorf("scenario.bodies: explicit scenario needs bodies")
		}
		if sc.N != 0 && sc.N != len(sc.Bodies) {
			return fmt.Errorf("scenario.n: %d does not match %d explicit bodies", sc.N, len(sc.Bodies))
		}
		n = len(sc.Bodies)
	} else {
		if len(sc.Bodies) != 0 {
			return fmt.Errorf("scenario.bodies: only meaningful for the explicit scenario")
		}
		if sc.N <= 0 {
			return fmt.Errorf("scenario.n: %d must be positive", sc.N)
		}
	}
	if sc.Scale != 0 && sc.Name != "disk" {
		return fmt.Errorf("scenario.scale: only meaningful for the disk scenario")
	}
	if sc.Side != 0 && sc.Name != "cube" {
		return fmt.Errorf("scenario.side: only meaningful for the cube scenario")
	}
	if (sc.Separation != 0 || sc.Speed != 0) && sc.Name != "collision" {
		return fmt.Errorf("scenario.separation/speed: only meaningful for the collision scenario")
	}
	if sc.Scale < 0 || sc.Side < 0 || sc.Separation < 0 {
		return fmt.Errorf("scenario: scale, side and separation must be non-negative")
	}
	if lim.MaxBodies > 0 && n > lim.MaxBodies {
		return fmt.Errorf("scenario.n: %d exceeds the service limit %d", n, lim.MaxBodies)
	}
	if s.Steps <= 0 {
		return fmt.Errorf("steps: %d must be positive", s.Steps)
	}
	if lim.MaxSteps > 0 && s.Steps > lim.MaxSteps {
		return fmt.Errorf("steps: %d exceeds the service limit %d", s.Steps, lim.MaxSteps)
	}
	if s.DT <= 0 {
		return fmt.Errorf("dt: %g must be positive", s.DT)
	}
	if s.SnapshotEvery < 0 {
		return fmt.Errorf("snapshot_every: %d must be non-negative", s.SnapshotEvery)
	}
	if s.Integrator != "" {
		if _, err := integrate.New(s.Integrator); err != nil {
			return fmt.Errorf("integrator: unknown integrator %q (known: %s)",
				s.Integrator, strings.Join(integrate.Names(), ", "))
		}
	}
	if s.Integrator != "hermite" {
		switch {
		case s.DTMin != 0:
			return fmt.Errorf("dt_min: requires integrator \"hermite\"")
		case s.DTMax != 0:
			return fmt.Errorf("dt_max: requires integrator \"hermite\"")
		case s.Eta != 0:
			return fmt.Errorf("eta: requires integrator \"hermite\"")
		}
	}
	if s.DTMin < 0 {
		return fmt.Errorf("dt_min: %g must be non-negative", s.DTMin)
	}
	if s.DTMax < 0 {
		return fmt.Errorf("dt_max: %g must be non-negative", s.DTMax)
	}
	if s.Eta < 0 {
		return fmt.Errorf("eta: %g must be non-negative", s.Eta)
	}
	if s.DTMin > 0 && s.DTMax > 0 && s.DTMin > s.DTMax {
		return fmt.Errorf("dt_min: %g exceeds dt_max %g", s.DTMin, s.DTMax)
	}
	switch s.Pipeline {
	case "", "serial", "overlap":
	default:
		return fmt.Errorf("pipeline: unknown mode %q", s.Pipeline)
	}
	if s.TimeoutMS < 0 {
		return fmt.Errorf("timeout_ms: %d must be non-negative", s.TimeoutMS)
	}
	if strings.ContainsAny(s.Plan, " \t\n") {
		return fmt.Errorf("plan: malformed plan %q", s.Plan)
	}
	return nil
}

// checkSchemaVersion rejects a JobSpec version this service cannot read: a
// negative one, or one newer than JobSchemaVersion. Zero means unversioned,
// which reads as version 1.
func checkSchemaVersion(v int) error {
	if v < 0 || v > JobSchemaVersion {
		return fmt.Errorf("schema_version: unsupported version %d (this service speaks %d)", v, JobSchemaVersion)
	}
	return nil
}

// N returns the job's body count.
func (s *JobSpec) N() int {
	if s.Scenario == nil {
		return 0
	}
	if s.Scenario.Name == "explicit" {
		return len(s.Scenario.Bodies)
	}
	return s.Scenario.N
}

// ScenarioName returns the scenario name, "" when unset.
func (s *JobSpec) ScenarioName() string {
	if s.Scenario == nil {
		return ""
	}
	return s.Scenario.Name
}

// System builds the job's initial conditions. Each call returns a fresh
// system, so a retried job restarts from the same state. The defaults (seed
// 1, cube side 2.0, disk scale 1.0, collision separation 4.0 and speed 0.5)
// are exactly the v1 constants, so an upgraded v1 spec reproduces its old
// trajectory bit for bit.
func (s *JobSpec) System() (*body.System, error) {
	sc := s.Scenario
	if sc == nil {
		return nil, fmt.Errorf("scenario: missing")
	}
	if sc.Name != "explicit" {
		seed := sc.Seed
		if seed == 0 {
			seed = 1
		}
		n := sc.N
		switch sc.Name {
		case "plummer":
			return ic.Plummer(n, seed), nil
		case "hernquist":
			return ic.Hernquist(n, seed), nil
		case "cube":
			side := sc.Side
			if side == 0 {
				side = 2.0
			}
			return ic.UniformCube(n, side, seed), nil
		case "disk":
			scale := sc.Scale
			if scale == 0 {
				scale = 1.0
			}
			return ic.Disk(n, scale, seed), nil
		case "collision":
			sep := sc.Separation
			if sep == 0 {
				sep = 4.0
			}
			speed := sc.Speed
			if speed == 0 {
				speed = 0.5
			}
			return ic.Collision(n, sep, speed, seed), nil
		}
		return nil, fmt.Errorf("scenario.name: unknown scenario %q", sc.Name)
	}
	sys := body.NewSystem(len(sc.Bodies))
	for i, b := range sc.Bodies {
		sys.Pos[i] = vec.V3{X: b.Pos[0], Y: b.Pos[1], Z: b.Pos[2]}
		sys.Vel[i] = vec.V3{X: b.Vel[0], Y: b.Vel[1], Z: b.Vel[2]}
		sys.Mass[i] = b.Mass
	}
	if err := sys.Validate(); err != nil {
		return nil, fmt.Errorf("scenario.bodies: %w", err)
	}
	return sys, nil
}

// watchdog builds the job's conservation watchdog, nil when no tolerance is
// set.
func (s *JobSpec) watchdog() *perf.Watchdog {
	if s.Tolerances == nil || (s.Tolerances.Energy <= 0 && s.Tolerances.Momentum <= 0) {
		return nil
	}
	return &perf.Watchdog{Tol: perf.Tolerances{
		MaxEnergyDrift:   s.Tolerances.Energy,
		MaxMomentumDrift: s.Tolerances.Momentum,
	}}
}

// timeout returns the job's run deadline, falling back to def.
func (s *JobSpec) timeout(def time.Duration) time.Duration {
	if s.TimeoutMS > 0 {
		return time.Duration(s.TimeoutMS) * time.Millisecond
	}
	return def
}

// workloadSpecV1 is the v1 wire shape of a generated workload, kept only for
// upgrading legacy documents.
type workloadSpecV1 struct {
	Kind string `json:"kind"`
	N    int    `json:"n"`
	Seed uint64 `json:"seed,omitempty"`
}

// jobSpecV1 is the v1 JobSpec wire shape: workload/bodies instead of the
// scenario, no block-timestep fields. DecodeJobSpec upgrades it on read.
type jobSpecV1 struct {
	SchemaVersion  int             `json:"schema_version"`
	Plan           string          `json:"plan"`
	Workload       *workloadSpecV1 `json:"workload,omitempty"`
	Bodies         []BodySpec      `json:"bodies,omitempty"`
	Steps          int             `json:"steps"`
	DT             float64         `json:"dt"`
	SnapshotEvery  int             `json:"snapshot_every,omitempty"`
	Integrator     string          `json:"integrator,omitempty"`
	Theta          float64         `json:"theta,omitempty"`
	Eps            float64         `json:"eps,omitempty"`
	Pipeline       string          `json:"pipeline,omitempty"`
	PipelineWindow int             `json:"pipeline_window,omitempty"`
	TimeoutMS      int64           `json:"timeout_ms,omitempty"`
	Tolerances     *ToleranceSpec  `json:"tolerances,omitempty"`
}

// upgrade lifts a v1 document to the v2 shape: a workload becomes the
// same-named scenario, explicit bodies become the explicit scenario. The
// System defaults are shared, so the upgraded spec generates a bit-identical
// initial state.
func (v *jobSpecV1) upgrade() JobSpec {
	spec := JobSpec{
		SchemaVersion:  JobSchemaVersion,
		Plan:           v.Plan,
		Steps:          v.Steps,
		DT:             v.DT,
		SnapshotEvery:  v.SnapshotEvery,
		Integrator:     v.Integrator,
		Theta:          v.Theta,
		Eps:            v.Eps,
		Pipeline:       v.Pipeline,
		PipelineWindow: v.PipelineWindow,
		TimeoutMS:      v.TimeoutMS,
		Tolerances:     v.Tolerances,
	}
	switch {
	case v.Workload != nil:
		spec.Scenario = &ScenarioSpec{Name: v.Workload.Kind, N: v.Workload.N, Seed: v.Workload.Seed}
	case len(v.Bodies) > 0:
		spec.Scenario = &ScenarioSpec{Name: "explicit", Bodies: v.Bodies}
	}
	return spec
}

// specEnvelope probes only the schema version, to pick the decode shape.
type specEnvelope struct {
	SchemaVersion int `json:"schema_version"`
}

// DecodeJobSpec decodes and validates a JobSpec document. Version 2
// documents decode directly; version 1 (or unversioned) documents decode
// through the legacy shape and are upgraded on read, so existing clients
// keep working unchanged. Any other version is refused before either shape
// is tried, since the upgrade would overwrite it.
func DecodeJobSpec(data []byte, lim Limits) (JobSpec, error) {
	var env specEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return JobSpec{}, fmt.Errorf("bad job spec: %w", err)
	}
	if err := checkSchemaVersion(env.SchemaVersion); err != nil {
		return JobSpec{}, err
	}
	var spec JobSpec
	if env.SchemaVersion <= 1 {
		var v1 jobSpecV1
		dec := json.NewDecoder(strings.NewReader(string(data)))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&v1); err != nil {
			return spec, fmt.Errorf("bad job spec: %w", err)
		}
		if (v1.Workload == nil) == (len(v1.Bodies) == 0) {
			return spec, fmt.Errorf("workload/bodies: exactly one must be given")
		}
		spec = v1.upgrade()
	} else {
		dec := json.NewDecoder(strings.NewReader(string(data)))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			return spec, fmt.Errorf("bad job spec: %w", err)
		}
		// An empty bodies list is no bodies. Decode it as json.Marshal
		// encodes it, absent, so the spec survives a round trip.
		if sc := spec.Scenario; sc != nil && len(sc.Bodies) == 0 {
			sc.Bodies = nil
		}
	}
	if err := spec.Validate(lim); err != nil {
		return spec, err
	}
	return spec, nil
}
