package protomodel

import "fmt"

// The descriptor protocol's fence placement, as an explicit-state model.
//
// One detectable operation touches up to four cache lines: its announce,
// its linearizing install, its verdict, and an auxiliary line no verdict
// testifies to (a snip, an upper-level link or mark — patomic.Auxiliary).
// A placement is the operation's program order over three instructions —
// write a line, flush it, fence — and the adversary is the fault model of
// internal/pmem: any line that has been written may be evicted to the media
// at any moment (evict), and a crash between any two instructions loses
// every line not yet on the media (drop). A fence puts every line flushed
// since the previous fence on the media. Torn lines need no state of their
// own: both descriptor lines are checksummed, so a torn line reads as
// absent, which the drop adversary already produces.
//
// After each crash the model runs the Detect truth table of
// engine.DescRegion on what the media holds — verdict present: Committed;
// announce alone: Unknown; neither: NotCommitted — and checks the two
// implications the serving tier's exactly-once replay rests on:
//
//	NotCommitted ⇒ the install is not on the media   (else a replay doubles it)
//	Committed    ⇒ the install is on the media       (else the effect is lost)
//
// for an operation that installs; an operation that installs nothing
// satisfies both vacuously, which is why its announce may share its
// verdict's fence. The auxiliary line appears in neither implication: its
// loss or survival leaves a state some crash of the uninstrumented structure
// could also have left, so the model only has to show that carrying it on
// the verdict's fence breaks nothing.
//
// This is the stated proof obligation of the engine's placement (announce
// fenced before the first install, verdict written after the install is
// durable, everything else free to ride the verdict's fence), checked
// exhaustively; the two tempting cheaper placements are shown to fail.

// Line is one cache line of a detectable operation.
type Line uint8

// The lines of one detectable operation.
const (
	Announce Line = iota
	Install
	Verdict
	Aux
	numLines
)

func (l Line) String() string {
	return [...]string{"announce", "install", "verdict", "aux"}[l]
}

// Instr is one instruction of a placement.
type Instr struct {
	Op   byte // 'w' write, 'f' flush, 'F' fence
	Line Line // unused by a fence
}

// Write, Flush and Fence build a placement's instructions.
func Write(l Line) Instr { return Instr{'w', l} }
func Flush(l Line) Instr { return Instr{'f', l} }
func Fence() Instr       { return Instr{Op: 'F'} }

// detState is one reachable state: the program counter plus, per line,
// whether it was written (is in the cache), is flushed and awaiting a fence,
// and is on the media. Bit l of each mask is line l.
type detState struct {
	pc                      int
	written, pending, media uint8
}

// CheckPlacement explores every adversary schedule against prog and returns
// one description per distinct violated implication (empty: the placement
// is sound) together with the number of states explored.
func CheckPlacement(prog []Instr) (violations []string, states int) {
	installs := false
	for _, in := range prog {
		if in.Op == 'w' && in.Line == Install {
			installs = true
		}
	}
	seen := map[detState]bool{}
	reported := map[string]bool{}
	var visit func(s detState)
	visit = func(s detState) {
		if seen[s] {
			return
		}
		seen[s] = true
		// Crash here: the media is all that is left.
		on := func(l Line) bool { return s.media&(1<<l) != 0 }
		if installs {
			var bad string
			switch {
			case on(Verdict) && !on(Install):
				bad = "Committed, but the install is not on the media"
			case !on(Verdict) && !on(Announce) && on(Install):
				bad = "NotCommitted, but the install is on the media"
			}
			if bad != "" && !reported[bad] {
				reported[bad] = true
				violations = append(violations, fmt.Sprintf("crash before instruction %d: %s", s.pc, bad))
			}
		}
		// Evict any written line that is not on the media yet.
		for l := Line(0); l < numLines; l++ {
			if s.written&(1<<l) != 0 && !on(l) {
				n := s
				n.media |= 1 << l
				visit(n)
			}
		}
		if s.pc == len(prog) {
			return
		}
		in, n := prog[s.pc], s
		n.pc++
		switch in.Op {
		case 'w':
			n.written |= 1 << in.Line
		case 'f':
			if s.written&(1<<in.Line) != 0 {
				n.pending |= 1 << in.Line
			}
		case 'F':
			n.media |= s.pending
			n.pending = 0
		}
		visit(n)
	}
	visit(detState{})
	return violations, len(seen)
}
