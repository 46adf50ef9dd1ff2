package clc

import (
	"fmt"
	"strings"
	"testing"
)

// shadowAccess is one __local access by lane in barrier phase.
type shadowAccess struct {
	lane  int
	write bool
	phase int
}

// TestCheckedShadowOrderIndependent drives the shadow store directly, one
// access sequence at a time, so each interleaving the scheduler could pick
// is checked deterministically.
func TestCheckedShadowOrderIndependent(t *testing.T) {
	cases := []struct {
		name string
		seq  []shadowAccess
		race bool
	}{
		{"read read write by second reader", []shadowAccess{{0, false, 0}, {1, false, 0}, {1, true, 0}}, true},
		{"read read write by first reader", []shadowAccess{{0, false, 0}, {1, false, 0}, {0, true, 0}}, true},
		{"three readers, write by the last", []shadowAccess{{0, false, 0}, {1, false, 0}, {2, false, 0}, {2, true, 0}}, true},
		{"read then write by another lane", []shadowAccess{{0, false, 0}, {1, true, 0}}, true},
		{"write then read by another lane", []shadowAccess{{0, true, 0}, {1, false, 0}}, true},
		{"write write", []shadowAccess{{0, true, 0}, {1, true, 0}}, true},
		{"one lane reads and writes", []shadowAccess{{0, false, 0}, {0, true, 0}, {0, false, 0}}, false},
		{"many readers, no writer", []shadowAccess{{0, false, 0}, {1, false, 0}, {2, false, 0}}, false},
		{"reads then write after a barrier", []shadowAccess{{0, false, 0}, {1, false, 0}, {1, true, 1}}, false},
		{"old readers do not leak into a new phase", []shadowAccess{{0, false, 0}, {1, false, 0}, {1, false, 1}, {1, true, 1}}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := NewCheckedState().group(0)
			trapped := ""
			func() {
				defer func() {
					if r := recover(); r != nil {
						trapped = fmt.Sprint(r)
					}
				}()
				for _, a := range tc.seq {
					c := &checkedItem{g: g, lane: a.lane, phase: a.phase}
					c.access(7, a.write, Token{Line: 1, Col: 1})
				}
			}()
			if tc.race && !strings.Contains(trapped, "checked: localrace") {
				t.Errorf("race not trapped (recovered %q)", trapped)
			}
			if !tc.race && trapped != "" {
				t.Errorf("false trap: %s", trapped)
			}
		})
	}
}
