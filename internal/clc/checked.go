package clc

import (
	"fmt"
	"sync"

	"repro/internal/gpusim"
)

// Checked interpreter mode: a shadow access log over __local memory with a
// barrier-based happens-before relation, the dynamic counterpart of the
// static localrace and barrierdiverge analyzers (internal/clc/analysis).
//
// Every work-item carries a barrier phase counter (the number of barriers it
// has executed). Two __local accesses to the same slot by different lanes of
// one group race exactly when they carry the same phase and at least one is
// a write — the group barrier is the only happens-before edge the language
// offers. Keying the check on the phase, not on wall-clock interleaving,
// makes detection independent of the schedule: whichever of the two racing
// accesses the scheduler runs second finds the first one's shadow record
// (see slotShadow) and traps. Which access traps, and so the position the
// trap names, can still vary between runs.
//
// Barrier divergence is detected at retirement: work-items of one group
// that executed different barrier counts took divergent paths through a
// barrier (undefined behaviour on real hardware; on the simulated device the
// group silently desynchronises). Bounds are already checked on every access
// in both modes (__local in this interpreter, __global in gpusim).
//
// Checked mode costs a mutex per group per access, so it is opt-in:
// BindChecked here, BuildOptions.Checked at the cl layer.

// CheckedState is the shadow store of one checked launch. It must not be
// shared between launches (phases restart at zero).
type CheckedState struct {
	mu     sync.Mutex
	groups map[int]*groupShadow
}

// NewCheckedState returns an empty shadow store for one launch.
func NewCheckedState() *CheckedState {
	return &CheckedState{groups: map[int]*groupShadow{}}
}

type groupShadow struct {
	mu        sync.Mutex
	slots     map[int32]*slotShadow
	exitPhase int
	exitSet   bool
}

// slotShadow remembers the most recent write of one __local float slot and
// the reads of it in the latest phase that read it. One write record is
// enough: a second write in the same phase by another lane traps before it
// can replace the first. Reads need more, because a read by one lane does
// not conflict with a read by another: after lanes A and B both read, a
// write by B still races with A's read. So the record keeps the first
// reader of the phase and, once a different lane reads, that second reader
// too; a write traps when any reader of its phase is another lane.
type slotShadow struct {
	wLane, wPhase int
	hasW          bool
	rLane, rPhase int
	hasR          bool
	// rOther is a reader of phase rPhase other than rLane, or -1.
	rOther int
}

func (st *CheckedState) group(id int) *groupShadow {
	st.mu.Lock()
	defer st.mu.Unlock()
	g := st.groups[id]
	if g == nil {
		g = &groupShadow{slots: map[int32]*slotShadow{}}
		st.groups[id] = g
	}
	return g
}

// checkedItem is the per-work-item view of the shadow state.
type checkedItem struct {
	g     *groupShadow
	lane  int
	phase int
}

func (st *CheckedState) item(wi *gpusim.Item) *checkedItem {
	return &checkedItem{g: st.group(wi.GroupID()), lane: wi.LocalID()}
}

// access records one __local access and traps on a same-phase cross-lane
// conflict. The panic unwinds into the launch error, like every other
// kernel trap.
func (c *checkedItem) access(slot int32, write bool, tok Token) {
	c.g.mu.Lock()
	defer c.g.mu.Unlock()
	s := c.g.slots[slot]
	if s == nil {
		s = &slotShadow{}
		c.g.slots[slot] = s
	}
	if s.hasW && s.wPhase == c.phase && s.wLane != c.lane {
		kind := "read"
		if write {
			kind = "write"
		}
		panic(fmt.Sprintf("clc: %s: checked: localrace: %s of __local slot %d by work-item %d races with a write by work-item %d in the same barrier phase",
			tok.Pos(), kind, slot, c.lane, s.wLane))
	}
	switch {
	case write:
		if s.hasR && s.rPhase == c.phase {
			reader := s.rLane
			if reader == c.lane {
				reader = s.rOther
			}
			if reader >= 0 {
				panic(fmt.Sprintf("clc: %s: checked: localrace: write of __local slot %d by work-item %d races with a read by work-item %d in the same barrier phase",
					tok.Pos(), slot, c.lane, reader))
			}
		}
		s.wLane, s.wPhase, s.hasW = c.lane, c.phase, true
	case !s.hasR || s.rPhase != c.phase:
		s.rLane, s.rPhase, s.hasR, s.rOther = c.lane, c.phase, true, -1
	case s.rLane != c.lane:
		s.rOther = c.lane
	}
}

// barrier advances this work-item's phase.
func (c *checkedItem) barrier() { c.phase++ }

// done is called when the work-item's kernel body returns: every item of a
// group must retire with the same barrier count, otherwise a barrier was
// divergent (or skipped by a divergent early return).
func (c *checkedItem) done(kernel string) {
	c.g.mu.Lock()
	defer c.g.mu.Unlock()
	if c.g.exitSet && c.g.exitPhase != c.phase {
		panic(fmt.Sprintf("clc: checked: barrierdiverge: kernel %q: work-items of one group retired after %d and %d barriers (barrier under divergent control flow)",
			kernel, c.g.exitPhase, c.phase))
	}
	c.g.exitPhase, c.g.exitSet = c.phase, true
}
