package protomodel

import (
	"strings"
	"testing"
)

// TestExhaustiveTwoThreadCAS explores every interleaving of two concurrent
// CAS operations for every interesting argument shape over a small value
// domain, asserting the invariants and linearization witnesses throughout.
func TestExhaustiveTwoThreadCAS(t *testing.T) {
	const init = 5
	cases := []struct {
		name                   string
		aExp, aNew, bExp, bNew uint64
	}{
		{"race-same-expected", init, 6, init, 7},
		{"race-same-everything", init, 6, init, 6},
		{"one-stale", init, 6, 9, 7},
		{"both-stale", 8, 6, 9, 7},
		{"aba-writeback", init, 6, 6, init}, // B re-installs the initial value
		{"same-value-overwrite", init, init, init, init},
		{"chain", init, 6, 6, 7}, // B expects A's result
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := Explore(init, tc.aExp, tc.aNew, tc.bExp, tc.bNew)
			for _, e := range c.Errors {
				t.Error(e)
			}
			if c.States < 5 {
				t.Errorf("only %d states explored; the model is not running", c.States)
			}
			t.Logf("%d states", c.States)
		})
	}
}

// TestExhaustiveThreeThreadCAS explores all interleavings of three
// concurrent operations for a set of argument shapes, including triple
// races on the same expected value and help chains.
func TestExhaustiveThreeThreadCAS(t *testing.T) {
	const init = 5
	cases := []struct {
		name string
		ops  []Op
	}{
		{"triple-race", []Op{{init, 6}, {init, 7}, {init, 8}}},
		{"race-plus-chain", []Op{{init, 6}, {init, 7}, {6, 8}}},
		{"aba-triangle", []Op{{init, 6}, {6, init}, {init, 7}}},
		{"same-values", []Op{{init, init}, {init, init}, {init, init}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := ExploreOps(init, tc.ops)
			for _, e := range c.Errors {
				t.Error(e)
			}
			t.Logf("%d states", c.States)
		})
	}
}

// TestSingleThreadDeterministic sanity-checks the state machine without
// concurrency: a lone CAS must succeed and install exactly once.
func TestSingleThreadDeterministic(t *testing.T) {
	// Thread B is given an expected value that can never match, so it
	// fails immediately and thread A runs effectively alone.
	c := Explore(5, 5, 6, 99, 1)
	for _, e := range c.Errors {
		t.Error(e)
	}
}

// TestDetectFencePlacement is the proof obligation of the descriptor
// protocol's fence placement (engine/detect.go "Ordering"), checked over
// every evict/drop schedule: the engine's placements are sound, and each of
// the two cheaper placements that merge a fence away is caught with the
// implication it breaks.
func TestDetectFencePlacement(t *testing.T) {
	w, f, F := Write, Flush, Fence()
	cases := []struct {
		name   string
		prog   []Instr
		breaks string // "" for a sound placement
	}{
		// A delete: the announce barrier fences just before the mark, the
		// mark is durable before it is visible, the verdict follows.
		{"announce | install | verdict", []Instr{
			w(Announce), f(Announce), F,
			w(Install), f(Install), F,
			w(Verdict), f(Verdict), F,
		}, ""},
		// The same with an auxiliary line written before the install (an
		// upper-level mark) and one written after it (a snip), both riding
		// the verdict's fence: what settle(atDrain) does on Mirror.
		{"aux before install shares the verdict fence", []Instr{
			w(Announce), f(Announce), w(Aux), F,
			w(Install), f(Install), F,
			f(Aux), w(Verdict), f(Verdict), F,
		}, ""},
		{"aux after install shares the verdict fence", []Instr{
			w(Announce), f(Announce), F,
			w(Install), f(Install), F,
			w(Aux), f(Aux), w(Verdict), f(Verdict), F,
		}, ""},
		// An operation that installs nothing: announce and verdict under
		// one fence.
		{"no install: announce shares the verdict fence", []Instr{
			w(Announce), f(Announce), w(Verdict), f(Verdict), F,
		}, ""},
		// Tempting and wrong: let the announce ride the install's own
		// fence. The install can be evicted first.
		{"WRONG announce shares the install fence", []Instr{
			w(Announce), f(Announce),
			w(Install), f(Install), F,
			w(Verdict), f(Verdict), F,
		}, "NotCommitted, but the install is on the media"},
		// Tempting and wrong: let the verdict ride the install's fence.
		// The verdict can be evicted first.
		{"WRONG verdict shares the install fence", []Instr{
			w(Announce), f(Announce), F,
			w(Install), f(Install),
			w(Verdict), f(Verdict), F,
		}, "Committed, but the install is not on the media"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			violations, states := CheckPlacement(tc.prog)
			if states < len(tc.prog) {
				t.Fatalf("only %d states explored; the model is not running", states)
			}
			switch {
			case tc.breaks == "" && len(violations) > 0:
				t.Errorf("sound placement rejected: %v", violations)
			case tc.breaks != "" && len(violations) != 1:
				t.Errorf("violations = %v, want exactly the one: %s", violations, tc.breaks)
			case tc.breaks != "" && !strings.Contains(violations[0], tc.breaks):
				t.Errorf("violation %q, want %q", violations[0], tc.breaks)
			}
			t.Logf("%d states", states)
		})
	}
}
