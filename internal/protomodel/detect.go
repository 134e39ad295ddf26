package protomodel

import "fmt"

// The descriptor protocol's fence placement, as an explicit-state model.
//
// One detectable operation touches up to four cache lines: its announce,
// its linearizing install, its verdict, and an auxiliary line no verdict
// testifies to (a snip, an upper-level link or mark — patomic.Auxiliary —
// or the lines of a new node, which only the install publishes).
// A placement is the program order over three instructions — write a line,
// flush it, fence — and the adversary is the fault model of internal/pmem:
// any line that has been written may be evicted to the media at any moment
// (evict), and a crash between any two instructions loses every line not
// yet on the media (drop). A fence puts every line flushed since the
// previous fence on the media. A line the engine arms to ride the next
// fence (pmem.Device.FlushAhead) is a flush placed just before that fence.
// Torn lines need no state of their own: both descriptor lines are
// checksummed, so a torn line reads as absent, which the drop adversary
// already produces.
//
// After each crash the model runs the Detect truth table of the engines'
// descriptor region on what the media holds — a verdict line that speaks
// for the operation present: Committed; its announce and a later
// operation's own verdict line: Committed; the announce alone: Unknown;
// neither: NotCommitted — and checks the implications the serving tier's
// exactly-once replay rests on:
//
//	NotCommitted ⇒ the install is not on the media   (else a replay doubles it)
//	Committed    ⇒ the install is on the media       (else the effect is lost)
//
// for an operation that installs; an operation that installs nothing
// satisfies both vacuously, which is why its announce need never be flushed
// at all. Across the operations of one drain, in seq order, a third:
//
//	Committed ⇒ every earlier operation is Committed (the committed prefix)
//
// The auxiliary line appears in no implication: its loss or survival leaves
// a state some crash of the uninstrumented structure could also have left,
// so the model only has to show that carrying it on the verdict's fence
// breaks nothing.
//
// This is the stated proof obligation of the engine's placement (announce
// fenced before the first install, verdict written after the install is
// durable, everything else free to ride the verdict's fence), checked
// exhaustively; the tempting cheaper placements are shown to fail.

// Line is one cache line of a detectable operation (or of a drain of up to
// three operations: the lines suffixed 2 and 3 belong to the second and
// third).
type Line uint8

// The lines of the operations of one drain.
const (
	Announce Line = iota
	Install
	Verdict
	Aux
	Announce2
	Install2
	Verdict2
	Announce3
	Verdict3
	// TaggedInstall is an install whose word carries its operation's tag
	// (engine detect.go "Tags"): recovery reads the tag off the media
	// wherever the install is, so the install on the media without the
	// announce reads Unknown, not NotCommitted.
	TaggedInstall
	numLines

	// NoLine stands for a line an operation does not have: no install, or
	// no verdict line of its own.
	NoLine Line = 255
)

func (l Line) String() string {
	if l == NoLine {
		return "none"
	}
	return [...]string{"announce", "install", "verdict", "aux",
		"announce2", "install2", "verdict2", "announce3", "verdict3", "tagged install"}[l]
}

// DetectOp names the lines Detect reads for one operation of a drain: its
// announce, its install (NoLine if it installs nothing), its own verdict
// line (NoLine if it has none) and the later lines whose result bits carry
// its verdict.
type DetectOp struct {
	Announce, Install, Verdict Line
	CarriedBy                  []Line
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
	written, pending, media uint16
}

// CheckPlacement checks a placement of one operation with its own verdict
// line; it installs iff prog writes Install. It returns one description
// per distinct violated implication (empty: the placement is sound)
// together with the number of states explored.
func CheckPlacement(prog []Instr) (violations []string, states int) {
	op := DetectOp{Announce: Announce, Install: NoLine, Verdict: Verdict}
	for _, in := range prog {
		if in.Op == 'w' && (in.Line == Install || in.Line == TaggedInstall) {
			op.Install = in.Line
		}
	}
	return CheckDrain([]DetectOp{op}, prog)
}

// CheckDrain explores every adversary schedule against prog for the given
// operations of one client, in seq order, and returns one description per
// distinct violated implication together with the number of states
// explored.
func CheckDrain(ops []DetectOp, prog []Instr) (violations []string, states int) {
	seen := map[detState]bool{}
	reported := map[string]bool{}
	report := func(s detState, i int, bad string) {
		if len(ops) > 1 {
			bad = fmt.Sprintf("operation %d: %s", i+1, bad)
		}
		if !reported[bad] {
			reported[bad] = true
			violations = append(violations, fmt.Sprintf("crash before instruction %d: %s", s.pc, bad))
		}
	}
	var visit func(s detState)
	visit = func(s detState) {
		if seen[s] {
			return
		}
		seen[s] = true
		// Crash here: the media is all that is left.
		on := func(l Line) bool { return l != NoLine && s.media&(1<<l) != 0 }
		earlierUncommitted := false
		for i, op := range ops {
			committed := on(op.Verdict)
			for _, l := range op.CarriedBy {
				committed = committed || on(l)
			}
			for _, later := range ops[i+1:] {
				committed = committed || on(op.Announce) && on(later.Verdict)
			}
			switch {
			case op.Install != NoLine && committed && !on(op.Install):
				report(s, i, "Committed, but the install is not on the media")
			case op.Install != NoLine && op.Install != TaggedInstall && !committed && !on(op.Announce) && on(op.Install):
				// (A tagged install on the media reads Unknown.)
				report(s, i, "NotCommitted, but the install is on the media")
			case committed && earlierUncommitted:
				report(s, i, "Committed, but an earlier operation is not")
			}
			earlierUncommitted = earlierUncommitted || !committed
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
