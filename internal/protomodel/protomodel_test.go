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
// every evict/drop schedule: the engine's placements are sound, and each
// cheaper placement that merges a fence away is caught with the
// implication it breaks.
func TestDetectFencePlacement(t *testing.T) {
	w, f, F := Write, Flush, Fence()
	cases := []struct {
		name   string
		prog   []Instr
		breaks string // "" for a sound placement
	}{
		// An untagged delete (a BST flag, any delete on a direct engine):
		// the announce barrier fences just before the mark, the mark is
		// durable before it is visible, the verdict follows.
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
		// What the engine does for it: the announce stays armed, nothing
		// fences before the verdict, so it is dropped and never flushed.
		{"no install: announce never flushed, verdict alone", []Instr{
			w(Announce), w(Verdict), f(Verdict), F,
		}, ""},
		// An insert: the armed announce rides the publish fence of the
		// new node (whose lines no verdict testifies to), ahead of the
		// link.
		{"announce flushed by the publish fence", []Instr{
			w(Announce), w(Aux), f(Aux), f(Announce), F,
			w(Install), f(Install), F,
			w(Verdict), f(Verdict), F,
		}, ""},
		// A delete's tagged mark on Mirror: no barrier fence, the armed
		// announce rides the mark's own fence. The mark can still be
		// evicted first, but it carries the operation's tag, so on the
		// media it reads Unknown — sound, unlike the untagged case below.
		{"tagged install shares the install fence", []Instr{
			w(Announce),
			w(TaggedInstall), f(TaggedInstall), f(Announce), F,
			w(Verdict), f(Verdict), F,
		}, ""},
		// Tempting and wrong: let the announce ride the install's own
		// fence. The install can be evicted first.
		{"WRONG announce shares the install fence", []Instr{
			w(Announce), f(Announce),
			w(Install), f(Install), F,
			w(Verdict), f(Verdict), F,
		}, "NotCommitted, but the install is on the media"},
		// The same mistake as the engine would make it without the
		// barrier's fence: the armed announce waits for the install's
		// fence, and the install's line can be evicted (or flushed and
		// kept) before the announce is ever flushed.
		{"WRONG barrier fence removed, announce armed until the install's fence", []Instr{
			w(Announce),
			w(Install), f(Install), f(Announce), F,
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

// TestDetectDrainPlacement extends the placement proof to a drain that
// writes one verdict line per client: a later operation's line carries the
// verdicts of the earlier ones in its bits. The engine's drains are sound
// — including one where a return word forces a second line, as long as
// every later line carries every earlier seq without a line of its own —
// and carrying an earlier seq only in the nearest later line is caught
// breaking the committed prefix.
func TestDetectDrainPlacement(t *testing.T) {
	w, f, F := Write, Flush, Fence()
	cases := []struct {
		name   string
		ops    []DetectOp
		prog   []Instr
		breaks string // "" for a sound placement
	}{
		// An insert, then a delete that misses: one line, the delete's,
		// vouches for both.
		{"one line vouches for an insert and a no-install op", []DetectOp{
			{Announce: Announce, Install: Install, Verdict: NoLine, CarriedBy: []Line{Verdict2}},
			{Announce: Announce2, Install: NoLine, Verdict: Verdict2},
		}, []Instr{
			w(Announce), w(Aux), f(Aux), f(Announce), F,
			w(Install), f(Install), F,
			w(Announce2),
			w(Verdict2), f(Verdict2), F,
		}, ""},
		// A no-install op, then a delete: the delete's barrier flushes
		// only its own announce; the first was dropped.
		{"one line vouches for a no-install op and a delete", []DetectOp{
			{Announce: Announce, Install: NoLine, Verdict: NoLine, CarriedBy: []Line{Verdict2}},
			{Announce: Announce2, Install: Install2, Verdict: Verdict2},
		}, []Instr{
			w(Announce),
			w(Announce2), f(Announce2), F,
			w(Install2), f(Install2), F,
			w(Verdict2), f(Verdict2), F,
		}, ""},
		// A no-install op, a dequeue (its return word needs a line of its
		// own), and a no-install op: both lines carry the first op.
		{"a return-word line and the newest line both carry the seqs before them", []DetectOp{
			{Announce: Announce, Install: NoLine, Verdict: NoLine, CarriedBy: []Line{Verdict2, Verdict3}},
			{Announce: Announce2, Install: Install2, Verdict: Verdict2},
			{Announce: Announce3, Install: NoLine, Verdict: Verdict3},
		}, []Instr{
			w(Announce),
			w(Announce2), f(Announce2), F,
			w(Install2), f(Install2), F,
			w(Announce3),
			w(Verdict2), f(Verdict2), w(Verdict3), f(Verdict3), F,
		}, ""},
		// Tempting and wrong: only the nearest later line carries the
		// first op. The newest line can reach the media without the
		// dequeue's, and the dequeue then reads Committed beside it while
		// the first op, whose announce was never flushed, reads
		// NotCommitted.
		{"WRONG only the nearest later line carries an earlier seq", []DetectOp{
			{Announce: Announce, Install: NoLine, Verdict: NoLine, CarriedBy: []Line{Verdict2}},
			{Announce: Announce2, Install: Install2, Verdict: Verdict2},
			{Announce: Announce3, Install: NoLine, Verdict: Verdict3},
		}, []Instr{
			w(Announce),
			w(Announce2), f(Announce2), F,
			w(Install2), f(Install2), F,
			w(Announce3),
			w(Verdict2), f(Verdict2), w(Verdict3), f(Verdict3), F,
		}, "operation 2: Committed, but an earlier operation is not"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			violations, states := CheckDrain(tc.ops, tc.prog)
			if states < len(tc.prog) {
				t.Fatalf("only %d states explored; the model is not running", states)
			}
			switch {
			case tc.breaks == "" && len(violations) > 0:
				t.Errorf("sound placement rejected: %v", violations)
			case tc.breaks != "" && len(violations) == 0:
				t.Errorf("no violation, want: %s", tc.breaks)
			case tc.breaks != "" && !strings.Contains(violations[0], tc.breaks):
				t.Errorf("violations %q, want %q first", violations, tc.breaks)
			}
			t.Logf("%d states", states)
		})
	}
}
