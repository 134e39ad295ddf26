// Package protomodel is an explicit-state model checker for the Mirror CAS
// protocol of Figure 4. It re-expresses the protocol as a small state
// machine over one cell — each shared-memory access is one atomic step —
// and exhaustively explores every interleaving of two concurrent
// operations, checking at every reachable state:
//
//   - the replica invariants of Lemmas 5.3–5.5 (the volatile sequence
//     number trails the persistent one by at most one; equal sequence
//     numbers imply equal values);
//   - durability ordering: a CAS never reports success before its
//     installed (value, seq) has reached the media;
//   - linearizability witnesses at termination: installs form a chain in
//     sequence order, each expecting its predecessor's value, successes
//     map one-to-one onto installs, and failures observed a value that
//     actually existed.
//
// The model intentionally duplicates the logic of internal/patomic rather
// than calling it: it is an independent executable specification of the
// paper's pseudocode, so a divergence between the two is itself a finding.
// The state space for two operations is tiny (thousands of states), so the
// exploration is exhaustive, not sampled.
//
// detect.go holds a second, smaller model in the same style: the fence
// placement of the descriptor protocol (announce, install, verdict and
// auxiliary lines of one detectable operation under the evict/drop
// adversary).
package protomodel

import "fmt"

// pair is a (value, sequence) tuple.
type pair struct {
	v, s uint64
}

// program counters of the per-thread protocol state machine.
const (
	pcReadP     = iota // load rep_p pair
	pcReadV            // load rep_v pair, then branch
	pcHelpFlush        // help path: flush rep_p
	pcHelpFence        // help path: fence
	pcHelpCASV         // help path: mirror rep_p into rep_v, restart
	pcInstall          // DWCAS rep_p
	pcFlush            // flush rep_p (both outcomes)
	pcFence            // fence
	pcFinish           // mirror own write / help winner, set result
	pcDone
)

// thread is one operation's private state.
type thread struct {
	pc               int
	expected, newVal uint64

	rp, rv   pair // register copies of rep_p / rep_v
	before   pair // observed pair from a failed install
	ok       bool // install DWCAS outcome
	installd uint64
	result   int8 // -1 pending, 0 returned false, 1 returned true
}

// maxThreads bounds the exploration width (state is a value type so it
// can key the visited map; unused slots stay zero).
const maxThreads = 3

// state is the full system state: one cell's replicas and media plus the
// threads.
type state struct {
	p, v, media pair
	n           int
	flushed     [maxThreads]bool // per-thread pending flush of the cell's line
	th          [maxThreads]thread
}

// install records one successful persistent DWCAS for the linearization
// check.
type install struct {
	tid      int
	from, to uint64
	seq      uint64
}

// visitKey prunes revisits; it includes the install history because the
// terminal oracle depends on it (two paths to one state with different
// histories are checked separately).
type visitKey struct {
	s    state
	hist string
}

// Checker explores the interleavings.
type Checker struct {
	visited map[visitKey]bool
	Errors  []string
	States  int
}

// Op describes one concurrent CAS operation.
type Op struct {
	Expected, New uint64
}

// Explore runs the exhaustive check for two operations with the given
// arguments against a cell initialized to (init, 1).
func Explore(init uint64, aExp, aNew, bExp, bNew uint64) *Checker {
	return ExploreOps(init, []Op{{aExp, aNew}, {bExp, bNew}})
}

// ExploreOps runs the exhaustive check for up to maxThreads concurrent CAS
// operations against a cell initialized to (init, 1).
func ExploreOps(init uint64, ops []Op) *Checker {
	if len(ops) == 0 || len(ops) > maxThreads {
		panic("protomodel: 1..3 operations supported")
	}
	c := &Checker{visited: make(map[visitKey]bool)}
	var s state
	s.p = pair{init, 1}
	s.v = pair{init, 1}
	s.media = pair{init, 1}
	s.n = len(ops)
	for i, op := range ops {
		s.th[i] = thread{pc: pcReadP, expected: op.Expected, newVal: op.New, result: -1}
	}
	for i := len(ops); i < maxThreads; i++ {
		s.th[i] = thread{pc: pcDone}
	}
	c.dfs(s, nil)
	return c
}

func (c *Checker) errf(format string, args ...any) {
	if len(c.Errors) < 20 {
		c.Errors = append(c.Errors, fmt.Sprintf(format, args...))
	}
}

// checkInvariants validates the Lemma 5.3–5.5 invariants plus media
// monotonicity in every reachable state.
func (c *Checker) checkInvariants(s *state) {
	switch {
	case s.p.s == s.v.s:
		if s.p.v != s.v.v {
			c.errf("equal seqs %d with values p=%d v=%d", s.p.s, s.p.v, s.v.v)
		}
	case s.p.s == s.v.s+1:
		// legal in-flight state
	default:
		c.errf("seq gap: p.s=%d v.s=%d", s.p.s, s.v.s)
	}
	if s.media.s > s.p.s {
		c.errf("media seq %d ahead of rep_p %d", s.media.s, s.p.s)
	}
}

// checkTerminal validates the linearization witnesses when both operations
// have returned.
func (c *Checker) checkTerminal(s *state, hist []install) {
	if s.p != s.v {
		c.errf("terminal replicas differ: p=%v v=%v", s.p, s.v)
	}
	// Installs must chain in seq order from the initial value.
	last := struct {
		v uint64
		s uint64
	}{s0Value(hist, s), 1}
	_ = last
	prevVal := initialOf(hist, s)
	prevSeq := uint64(1)
	for _, in := range hist {
		if in.seq != prevSeq+1 {
			c.errf("install seq %d does not follow %d", in.seq, prevSeq)
		}
		if in.from != prevVal {
			c.errf("install expected %d but chain value was %d", in.from, prevVal)
		}
		prevVal, prevSeq = in.to, in.seq
	}
	if s.p.v != prevVal || s.p.s != prevSeq {
		c.errf("terminal cell %v != chain end (%d,%d)", s.p, prevVal, prevSeq)
	}
	// Success results map one-to-one onto installs.
	for tid := 0; tid < s.n; tid++ {
		n := 0
		for _, in := range hist {
			if in.tid == tid {
				n++
			}
		}
		switch s.th[tid].result {
		case 1:
			if n != 1 {
				c.errf("thread %d returned true with %d installs", tid, n)
			}
		case 0:
			if n != 0 {
				c.errf("thread %d returned false with an install", tid)
			}
		default:
			c.errf("thread %d never returned", tid)
		}
	}
}

func initialOf(hist []install, s *state) uint64 {
	if len(hist) > 0 {
		// The first install expected the initial value by construction
		// of the chain check; recover it from there.
		return hist[0].from
	}
	return s.p.v
}

func s0Value(hist []install, s *state) uint64 { return initialOf(hist, s) }

// dfs explores every interleaving. hist carries the path's installs.
func (c *Checker) dfs(s state, hist []install) {
	c.checkInvariants(&s)
	done := true
	for i := 0; i < s.n; i++ {
		if s.th[i].pc != pcDone {
			done = false
		}
	}
	if done {
		c.checkTerminal(&s, hist)
		return
	}
	key := visitKey{s: s, hist: fmt.Sprint(hist)}
	if c.visited[key] {
		return
	}
	c.visited[key] = true
	c.States++
	for tid := 0; tid < s.n; tid++ {
		if s.th[tid].pc == pcDone {
			continue
		}
		ns, ni := step(s, tid)
		nh := hist
		if ni != nil {
			nh = append(append([]install(nil), hist...), *ni)
		}
		c.dfs(ns, nh)
	}
}

// step executes one atomic protocol step of thread tid and returns the new
// state plus the install it performed, if any.
func step(s state, tid int) (state, *install) {
	t := &s.th[tid]
	switch t.pc {
	case pcReadP:
		t.rp = s.p
		t.pc = pcReadV
	case pcReadV:
		t.rv = s.v
		// Branch (registers only; no shared access).
		switch {
		case t.rp.s == t.rv.s+1:
			t.pc = pcHelpFlush
		case t.rp.s != t.rv.s:
			t.pc = pcReadP
		case t.rp.v != t.expected:
			t.result = 0
			t.pc = pcDone
		default:
			t.pc = pcInstall
		}
	case pcHelpFlush:
		s.flushed[tid] = true
		t.pc = pcHelpFence
	case pcHelpFence:
		if s.flushed[tid] {
			s.media = s.p
			s.flushed[tid] = false
		}
		t.pc = pcHelpCASV
	case pcHelpCASV:
		if s.v == t.rv {
			s.v = t.rp
		}
		t.pc = pcReadP
	case pcInstall:
		if s.p == t.rp {
			s.p = pair{t.newVal, t.rp.s + 1}
			t.ok = true
			t.installd = t.rp.s + 1
			t.pc = pcFlush
			// Record the install at the moment it happens, so the
			// history is chronological.
			return s, &install{tid: tid, from: t.rp.v, to: t.newVal, seq: t.installd}
		}
		t.ok = false
		t.before = s.p
		t.pc = pcFlush
	case pcFlush:
		s.flushed[tid] = true
		t.pc = pcFence
	case pcFence:
		if s.flushed[tid] {
			s.media = s.p
			s.flushed[tid] = false
		}
		t.pc = pcFinish
	case pcFinish:
		if t.ok {
			if s.v == t.rp {
				s.v = pair{t.newVal, t.installd}
			}
			t.result = 1
			t.pc = pcDone
			// Durability ordering: success implies the installed pair
			// reached the media before this return.
			if s.media.s < t.installd {
				panic(fmt.Sprintf("success before durability: media.s=%d installed=%d",
					s.media.s, t.installd))
			}
			return s, nil
		}
		if t.before.v == t.expected {
			t.pc = pcReadP // same-value, new-seq: retry (line 46)
			return s, nil
		}
		if s.v == t.rv {
			s.v = t.before // help the winner (line 47)
		}
		t.result = 0
		t.pc = pcDone
	}
	return s, nil
}
