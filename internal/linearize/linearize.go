// Package linearize is an offline linearizability checker for concurrent
// set histories (Wing–Gong search with visited-state memoization, in the
// style of Lowe's refinements). The crash harness checks durable
// linearizability against per-key single-writer histories, which is exact
// but restricted; this checker validates *full* linearizability of
// arbitrary concurrent histories — any thread may operate on any key — at
// the cost of bounded history length.
//
// A history is a sequence of operation records with invocation/response
// timestamps drawn from one global atomic counter. The checker searches
// for a total order of operations that (a) respects real-time order — an
// operation that responded before another was invoked must be linearized
// first — and (b) is legal for sequential set semantics, including each
// operation's observed return value.
package linearize

import (
	"fmt"
	"sort"
	"sync/atomic"

	"mirror/internal/engine"
	"mirror/internal/structures"
)

// OpKind enumerates set operations.
type OpKind uint8

// Operation kinds.
const (
	OpInsert OpKind = iota
	OpDelete
	OpContains
)

func (k OpKind) String() string {
	switch k {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	default:
		return "contains"
	}
}

// Op is one recorded operation.
type Op struct {
	Kind     OpKind
	Key      uint64
	Result   bool   // returned value (presence/success)
	Inv, Res uint64 // global timestamps
	Thread   int
}

// History is a recorded concurrent execution. Checkable histories hold at
// most 64 operations (the search uses a bitmask).
type History struct {
	clock atomic.Uint64
	mu    chan struct{} // 1-slot semaphore guarding Ops and Pending
	Ops   []Op
	// Pending holds operations cut by a crash: invoked, never responded.
	// Their Res is ^uint64(0) (they constrain no one's real-time order)
	// and their Result is meaningless. Check ignores them; CheckDurable
	// lets each one either take effect or vanish.
	Pending []Op
}

// NewHistory creates an empty history.
func NewHistory() *History {
	h := &History{mu: make(chan struct{}, 1)}
	h.mu <- struct{}{}
	return h
}

// Record wraps a structures.Set so that every operation through the
// wrapper is appended to the history.
func (h *History) Record(set structures.Set, thread int) *Recorder {
	return &Recorder{h: h, set: set, thread: thread}
}

// Recorder is a per-thread recording wrapper.
type Recorder struct {
	h      *History
	set    structures.Set
	thread int
}

func (r *Recorder) record(kind OpKind, key uint64, f func() bool) bool {
	inv := r.h.clock.Add(1)
	// recorded flips only once the response is actually in Ops — inside
	// the critical section, after the append. Flipping it any earlier
	// opens a window where a panic (the frozen device unwinding through a
	// patomic help path, or through the detectability epilogue) loses the
	// operation entirely: it would be in neither Ops nor Pending, and
	// CheckDurable would validate a history missing a real operation.
	recorded := false
	defer func() {
		if recorded {
			return
		}
		// The operation panicked — in the crash harness that means the
		// device froze mid-operation. Record it as pending (invoked, no
		// response) while the panic keeps unwinding.
		<-r.h.mu
		r.h.Pending = append(r.h.Pending, Op{
			Kind: kind, Key: key,
			Inv: inv, Res: ^uint64(0), Thread: r.thread,
		})
		r.h.mu <- struct{}{}
	}()
	result := f()
	res := r.h.clock.Add(1)
	<-r.h.mu
	r.h.Ops = append(r.h.Ops, Op{
		Kind: kind, Key: key, Result: result,
		Inv: inv, Res: res, Thread: r.thread,
	})
	recorded = true
	r.h.mu <- struct{}{}
	return result
}

// Insert records an insert.
func (r *Recorder) Insert(c *engine.Ctx, key, val uint64) bool {
	return r.record(OpInsert, key, func() bool { return r.set.Insert(c, key, val) })
}

// Delete records a delete.
func (r *Recorder) Delete(c *engine.Ctx, key uint64) bool {
	return r.record(OpDelete, key, func() bool { return r.set.Delete(c, key) })
}

// Contains records a membership query.
func (r *Recorder) Contains(c *engine.Ctx, key uint64) bool {
	return r.record(OpContains, key, func() bool { return r.set.Contains(c, key) })
}

// CompletePending resolves one thread's crash-cut pending operation as
// having committed with the given result: the op moves from Pending to Ops,
// keeping its invocation time and taking a fresh (maximal) response time,
// so it constrains no completed operation's real-time order but must now
// take effect in any linearization. This is the history transformation a
// detectability verdict justifies (Detect == Committed with a recorded
// result). It reports whether the thread had a pending operation. Intended
// for quiesced, post-crash use.
func (h *History) CompletePending(thread int, result bool) bool {
	<-h.mu
	defer func() { h.mu <- struct{}{} }()
	op, ok := h.takePendingLocked(thread)
	if !ok {
		return false
	}
	op.Result = result
	op.Res = h.clock.Add(1)
	h.Ops = append(h.Ops, op)
	return true
}

// DropPending removes one thread's crash-cut pending operation from the
// history entirely — the transformation a Detect == NotCommitted verdict
// justifies (the operation provably never took effect, so the history must
// be checkable without it). It reports whether the thread had a pending
// operation. Intended for quiesced, post-crash use.
func (h *History) DropPending(thread int) bool {
	<-h.mu
	defer func() { h.mu <- struct{}{} }()
	_, ok := h.takePendingLocked(thread)
	return ok
}

// AppendCompleted records an operation executed outside a Recorder — e.g. a
// post-recovery exactly-once replay — as a completed op whose invocation
// follows every previously recorded response, so it must linearize after
// all of them.
func (h *History) AppendCompleted(kind OpKind, key uint64, result bool, thread int) {
	inv := h.clock.Add(1)
	res := h.clock.Add(1)
	<-h.mu
	h.Ops = append(h.Ops, Op{
		Kind: kind, Key: key, Result: result,
		Inv: inv, Res: res, Thread: thread,
	})
	h.mu <- struct{}{}
}

// takePendingLocked removes and returns the thread's pending op (threads
// run one operation at a time, so there is at most one). Callers hold mu.
func (h *History) takePendingLocked(thread int) (Op, bool) {
	for i, op := range h.Pending {
		if op.Thread == thread {
			h.Pending = append(h.Pending[:i], h.Pending[i+1:]...)
			return op, true
		}
	}
	return Op{}, false
}

// setState is a canonical encoding of a small set (sorted keys).
func setState(m map[uint64]bool) string {
	keys := make([]uint64, 0, len(m))
	for k, present := range m {
		if present {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return fmt.Sprint(keys)
}

// apply returns whether op is legal in state s, and mutates s on success.
func apply(s map[uint64]bool, op Op) bool {
	present := s[op.Key]
	switch op.Kind {
	case OpInsert:
		if op.Result == present {
			return false // insert succeeds iff absent
		}
		if op.Result {
			s[op.Key] = true
		}
	case OpDelete:
		if op.Result != present {
			return false // delete succeeds iff present
		}
		if op.Result {
			s[op.Key] = false
		}
	case OpContains:
		if op.Result != present {
			return false
		}
	}
	return true
}

func unapply(s map[uint64]bool, op Op, prev bool) {
	s[op.Key] = prev
}

// Check searches for a linearization of the history starting from the
// given initial set contents. It returns nil if one exists, or an error
// describing the failure.
func Check(h *History, initial map[uint64]bool) error {
	ops := h.Ops
	if len(ops) > 64 {
		return fmt.Errorf("linearize: history of %d ops exceeds the 64-op bound", len(ops))
	}
	state := make(map[uint64]bool, len(initial))
	for k, v := range initial {
		state[k] = v
	}
	visited := make(map[string]bool)
	var dfs func(done uint64) bool
	dfs = func(done uint64) bool {
		if done == (uint64(1)<<len(ops))-1 {
			return true
		}
		key := fmt.Sprintf("%x|%s", done, setState(state))
		if visited[key] {
			return false
		}
		visited[key] = true
		// minRes is the earliest response among unlinearized ops; only
		// ops invoked before it may linearize next (real-time order).
		minRes := ^uint64(0)
		for i, op := range ops {
			if done&(1<<i) == 0 && op.Res < minRes {
				minRes = op.Res
			}
		}
		for i, op := range ops {
			if done&(1<<i) != 0 || op.Inv > minRes {
				continue
			}
			prev := state[op.Key]
			if apply(state, op) {
				if dfs(done | 1<<i) {
					return true
				}
				unapply(state, op, prev)
			}
		}
		return false
	}
	if !dfs(0) {
		return fmt.Errorf("linearize: no valid linearization for %d ops", len(ops))
	}
	return nil
}

// CheckDurable checks durable linearizability of a crashed history against
// the state observed after recovery: there must exist a linearization in
// which every *completed* operation takes effect with its observed result
// (respecting real-time order), each crash-cut *pending* operation either
// takes effect as a successful write or vanishes entirely (the two legal
// fates of an operation with no response), and the final abstract state
// equals the recovered set contents. A completed operation whose effect is
// missing from `final` — the signature of a lost flush — has no such
// linearization, and the error says so.
func CheckDurable(h *History, initial, final map[uint64]bool) error {
	ops := make([]Op, 0, len(h.Ops)+len(h.Pending))
	ops = append(ops, h.Ops...)
	ops = append(ops, h.Pending...)
	nDone := len(h.Ops)
	if len(ops) > 64 {
		return fmt.Errorf("linearize: history of %d ops exceeds the 64-op bound", len(ops))
	}
	state := make(map[uint64]bool, len(initial))
	for k, v := range initial {
		state[k] = v
	}
	target := setState(final)
	full := (uint64(1) << len(ops)) - 1
	visited := make(map[string]bool)
	var dfs func(done uint64) bool
	dfs = func(done uint64) bool {
		if done == full {
			return setState(state) == target
		}
		key := fmt.Sprintf("%x|%s", done, setState(state))
		if visited[key] {
			return false
		}
		visited[key] = true
		// Real-time order constrains completed operations only: pending
		// ops never responded, so their Res (= max uint64) bounds no one.
		minRes := ^uint64(0)
		for i, op := range ops {
			if done&(1<<i) == 0 && op.Res < minRes {
				minRes = op.Res
			}
		}
		for i, op := range ops {
			if done&(1<<i) != 0 {
				continue
			}
			if i >= nDone {
				// Pending: may vanish at any point in the search (it has
				// no effect, so position is irrelevant) ...
				if dfs(done | 1<<i) {
					return true
				}
				// ... or take effect as a successful write, if invoked in
				// time and legal. A cut Contains has no effect either way.
				if op.Inv > minRes || op.Kind == OpContains {
					continue
				}
				eff := op
				eff.Result = true
				prev := state[op.Key]
				if apply(state, eff) {
					if dfs(done | 1<<i) {
						return true
					}
					unapply(state, eff, prev)
				}
				continue
			}
			if op.Inv > minRes {
				continue
			}
			prev := state[op.Key]
			if apply(state, op) {
				if dfs(done | 1<<i) {
					return true
				}
				unapply(state, op, prev)
			}
		}
		return false
	}
	if !dfs(0) {
		return fmt.Errorf("linearize: no durable linearization of %d completed + %d pending ops reaches the recovered state",
			nDone, len(h.Pending))
	}
	return nil
}
