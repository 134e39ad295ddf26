// Package patomic implements the Mirror primitive of the paper: a
// persistent atomic cell (the C++ patomic<T> of Figure 2) consisting of a
// value word and a sequence-number word kept in lock step on two replicas —
// a persistent replica rep_p and a volatile replica rep_v, at the same
// offset of two devices (§4.3.1's identity address translation).
//
// The operation semantics follow §4.1 exactly:
//
//   - Load (Figure 5) reads only the value word of the volatile replica
//     and is wait-free. Every value it can observe was persisted before it
//     became visible in rep_v, which is why Mirror never needs to persist
//     reads.
//   - CompareAndSwap (Figure 4) first validates that the two replicas
//     agree (helping an in-flight writer if rep_p is one sequence number
//     ahead), then installs (newVal, seq+1) into rep_p with a DWCAS,
//     flushes and fences it, and finally mirrors the update into rep_v.
//   - Store never fails, so it loops over CompareAndSwap as §4.1.2
//     prescribes.
//
// The invariants proved in §5 (Lemmas 5.3–5.5) hold per cell: the volatile
// sequence number is equal to or exactly one behind the persistent one, and
// equal sequence numbers imply equal values. Tests assert them directly.
package patomic

import (
	"sync"
	"sync/atomic"

	"mirror/internal/pmem"
)

// InitSeq is the sequence number given to freshly initialized cells. It is
// nonzero so an initialized cell is distinguishable from zeroed memory.
const InitSeq = 1

// CellWords is the footprint of one cell in words (value + sequence).
const CellWords = 2

// Ctx carries the per-thread flush set for the persistent device, and this
// thread's shard of the contention statistics. One Ctx must not be shared
// between goroutines, and — like its embedded FlushSet — it is bound to the
// first Mem that uses it.
type Ctx struct {
	FS pmem.FlushSet

	// AfterTagged, when set, runs with the cell's offset after this
	// thread's own Tagged install reached rep_p and before the flush and
	// fence that commit it: what it writes and flushes there commits with
	// the install, and no earlier.
	AfterTagged func(off uint64)

	mem     *Mem          // Mem this context is registered with (first use wins)
	helps   atomic.Uint64 // completions of another thread's write (lines 19–26)
	retries atomic.Uint64 // protocol restarts of any kind
}

// Mem is a pair of replicas: cell offsets are valid on both devices.
type Mem struct {
	P *pmem.Device // persistent replica rep_p
	V *pmem.Device // volatile replica rep_v (possibly NVMM-backed, see §6.3)

	// Contention statistics live in per-Ctx shards so the help/retry
	// bookkeeping never contends on a shared cache line; Stats sums the
	// shards. The registry only grows (one entry per thread context).
	statsMu sync.Mutex
	ctxs    []*Ctx

	// Witness, when set, maps a value to the persistent words whose lines
	// must be durable before the value may be mirrored into rep_v by a
	// thread that did not install it (0: none). The engine sets it when
	// values may carry a tag that testifies for a descriptor line, and the
	// install of such a value may have made its fence commit one more line
	// (a witness the install's owner wrote before it); a helper persists
	// both first, and an owner installs such a value under Tagged.
	Witness func(v uint64) (line, also uint64)

	installed func(uint64) bool // test-only seam; see OnInstallForTest
}

// adopt registers ctx as a statistics shard of m on first use. A Ctx is
// bound to the first Mem that uses it for its lifetime, matching the
// embedded FlushSet's binding to rep_p.
func (m *Mem) adopt(ctx *Ctx) {
	if ctx.mem != nil {
		panic("patomic: Ctx bound to one Mem used with another")
	}
	m.statsMu.Lock()
	ctx.mem = m
	m.ctxs = append(m.ctxs, ctx)
	m.statsMu.Unlock()
}

// noteHelp counts a completion of another thread's write on ctx's shard.
func (m *Mem) noteHelp(ctx *Ctx) {
	if ctx.mem != m {
		m.adopt(ctx)
	}
	ctx.helps.Add(1)
}

// noteRetry counts a protocol restart on ctx's shard.
func (m *Mem) noteRetry(ctx *Ctx) {
	if ctx.mem != m {
		m.adopt(ctx)
	}
	ctx.retries.Add(1)
}

// Stats returns the cumulative help completions and protocol retries —
// how often the Figure 4 help path and restart paths actually run — summed
// exactly across the per-thread shards.
func (m *Mem) Stats() (helps, retries uint64) {
	m.statsMu.Lock()
	for _, c := range m.ctxs {
		helps += c.helps.Load()
		retries += c.retries.Load()
	}
	m.statsMu.Unlock()
	return helps, retries
}

// Intent is what a caller states about one write. The caller never says
// what to flush or when: the persistence policy is picked here, from the
// intent alone. DESIGN.md "Persistence seam" tabulates the outcome.
type Intent uint8

const (
	// Full writes are durable before they are visible, whatever the device
	// can do: every linearization point, Store (a loop over
	// CompareAndSwap) and the plain CompareAndSwap.
	Full Intent = iota
	// Auxiliary marks a retire-gated physical update whose loss at a crash
	// leaves a state some earlier crash could also have left: a snip of an
	// already-marked node, a bst excision. The install becomes visible
	// before it is durable, and the relaxed-line registry commits it before
	// anything it unlinked is freed. A linearization point (mark, level-0
	// link, bst flag) must never use it.
	Auxiliary
	// Tagged is Full for a value whose witness line (Mem.Witness) the
	// owner's next fence flushes — armed on its flush set, or already
	// durable: like every Full install it ends in a real flush and fence on
	// the owner's flush set, which a fence of the same line by another
	// thread cannot stand in for — that fence may have committed the value
	// but not the witness. The AfterTagged hook runs first.
	Tagged
)

// Load returns the cell's current value. It is wait-free and touches only
// the volatile replica (Figure 5).
func (m *Mem) Load(off uint64) uint64 {
	return m.V.Load(off)
}

// CompareAndSwap is CAS with the Full intent.
func (m *Mem) CompareAndSwap(ctx *Ctx, off uint64, expected, newVal uint64) (bool, uint64) {
	return m.CAS(ctx, off, expected, newVal, Full)
}

// CAS implements Figure 4. It atomically replaces the cell's value with
// newVal if the current value equals expected, and returns whether the swap
// happened and the value observed when it did not (the updated "expected"
// of compare_exchange_strong). Under the Full intent the new value is
// durable before it becomes visible to loads; the Auxiliary intent lets the
// policy defer exactly one step — the flush+fence of the thread's *own*
// successful install. Every other arm — the help path, the
// torn-view retry, the failed-install persist — keeps the full discipline
// under Auxiliary too, because those arms make other threads' installs
// durable and a helper must never publish an install it has merely
// deferred.
func (m *Mem) CAS(ctx *Ctx, off uint64, expected, newVal uint64, in Intent) (bool, uint64) {
	for {
		pv, ps := m.P.LoadPair(off) // read rep_p (atomic pair ≙ seq/val/seq validation)
		vv, vs := m.V.LoadPair(off) // read rep_v

		if ps == vs+1 {
			// Another write installed (pv, ps) in rep_p but has not
			// reached rep_v yet: help complete it (lines 19–26). The
			// value — and its witness lines — must be durable before it
			// becomes loadable: the helper flushes and fences them itself,
			// whatever the owner has done so far.
			m.persistHelped(ctx, off, pv)
			m.V.DWCAS(off, vv, vs, pv, ps)
			m.noteHelp(ctx)
			continue
		}
		if ps != vs {
			// Torn view across the two pair reads; retry (line 29).
			m.noteRetry(ctx)
			continue
		}
		if pv != expected {
			// Fail without writing (lines 32–35).
			return false, pv
		}

		// Install into rep_p first (lines 38–42).
		ok, curV, curS := m.P.DWCAS(off, pv, ps, newVal, ps+1)
		if ok {
			// The persistence policy for the thread's own install, run
			// between the rep_p install and the rep_v mirror:
			//
			//   - relax: the line's durability becomes the pre-free
			//     drain's obligation, registered before the mirror so that
			//     every thread that observed the install — including the
			//     one that retires the unlinked object — is ordered after
			//     it.
			//   - otherwise: a flush and a fence on this thread's flush
			//     set before the mirror (EnsureDurable); a tagged install
			//     first runs its AfterTagged hook, and the fence commits the
			//     armed witness line with the value.
			//
			// The test hook may drop durability: visible, never durable.
			if in == Auxiliary {
				m.P.NoteRelaxed(&ctx.FS, off)
			} else if m.installed == nil || !m.installed(off) {
				if in == Tagged && ctx.AfterTagged != nil {
					ctx.AfterTagged(off)
				}
				m.P.EnsureDurable(&ctx.FS, off, 0, 0)
			}
			// Mirror into rep_v (line 44). Failure here means a helper
			// already completed our write (or a later one); either way
			// the operation is linearized.
			m.V.DWCAS(off, pv, ps, newVal, ps+1)
			return true, pv
		}
		// Failed install: help persist the competing write, and its
		// witness lines, before we touch rep_v.
		m.persistHelped(ctx, off, curV)
		if curV == expected {
			// The value still matches but the sequence number moved
			// (same-value overwrite by a concurrent thread). A regular
			// CAS must succeed in this situation, so retry (line 46).
			m.noteRetry(ctx)
			continue
		}
		// Help the winner's value into rep_v from the state we saw
		// before failing (line 47), then fail.
		m.V.DWCAS(off, vv, vs, curV, curS)
		return false, curV
	}
}

// OnInstallForTest makes every successful rep_p install of m that is made
// durable now call f with the cell's offset, after the install and before
// its flush+fence — the window in which another thread's fence of the same
// line can commit the install.
// When f returns true the install drops its durability: it is mirrored
// into rep_v — and so completes its operation — without ever being flushed
// or fenced, the seeded bug "one missing flush in the writer's own
// install" (engine.NewBroken); help and failure paths keep their
// flush+fence. Never use outside tests.
func (m *Mem) OnInstallForTest(f func(off uint64) (drop bool)) { m.installed = f }

// persistHelped makes the value v, just observed at off, durable with its
// witness lines (Witness) before a helper mirrors it into rep_v on another
// thread's behalf: the owner wrote the witnesses before the install the
// helper observed.
func (m *Mem) persistHelped(ctx *Ctx, off, v uint64) {
	var w, x uint64
	if m.Witness != nil {
		w, x = m.Witness(v)
	}
	m.P.EnsureDurable(&ctx.FS, off, w, x)
}

// Store atomically replaces the cell's value unconditionally; simple writes
// never fail, so like every other write it loops over CompareAndSwap
// (§4.1.2).
func (m *Mem) Store(ctx *Ctx, off uint64, v uint64) {
	cur := m.Load(off)
	for {
		ok, actual := m.CompareAndSwap(ctx, off, cur, v)
		if ok {
			return
		}
		cur = actual
	}
}

// InitCell initializes an unpublished cell on both replicas with value v
// and sequence number InitSeq, and defers the flush of the persistent copy
// to PublishFence, which callers run before the cell becomes reachable
// (the allocator wrapper of §4.3.2). PublishFence issues one flush per
// distinct dirty line, so a multi-cell object costs one clwb per cache
// line instead of one per cell (both cell words share a line — cells are
// 16-byte aligned).
func (m *Mem) InitCell(ctx *Ctx, off uint64, v uint64) {
	m.P.StoreInit(off+1, InitSeq)
	m.V.StoreInit(off+1, InitSeq)
	m.InitWord(ctx, off, v)
}

// InitWord initializes an unpublished plain word — a field with no sequence
// number, written once before publication (a key) or rebuilt by recovery (a
// skip list's upper link) — on both replicas, and defers the flush of its
// persistent copy like InitCell: PublishFence makes it durable before the
// object is reachable. The stores are the devices' init
// stores (pmem.Device.StoreInit): the word is unpublished, so nothing orders
// or arbitrates it until the install that publishes its object.
func (m *Mem) InitWord(ctx *Ctx, off uint64, v uint64) {
	m.P.StoreInit(off, v)
	ctx.FS.DeferInit(off)
	m.V.StoreInit(off, v)
}

// PublishFence fences all pending persistent-replica flushes of this
// context. It must run after a new object's InitCells and before the CAS
// that publishes the object, so the object's contents are durable no later
// than the reference to it. It first drains the deferred init flushes (one
// per distinct line, counting the per-cell flushes it saves as elided), and
// skips the fence entirely when nothing at all is pending — an sfence with
// no clwb in flight orders nothing.
func (m *Mem) PublishFence(ctx *Ctx) { m.P.PublishInit(&ctx.FS) }

// RecoverRange rebuilds the volatile replica of every word in
// [off, off+words) — cells and plain words alike, so an object with an odd
// number of plain words has an odd span — from the persistent replica's
// current (post-crash) content. It is a thin wrapper over the device's bulk
// range copy, so a rebuild moves whole spans, not words. Like every pmem
// operation it honors the persistent device's freeze gate, so a crash can
// land mid-rebuild.
func (m *Mem) RecoverRange(off uint64, words int) {
	m.P.CopyRange(m.V, off, words)
}

// CheckInvariants verifies Lemmas 5.3–5.5 for one cell. It requires a
// quiesced system (no concurrent writers) and returns a description of the
// first violated invariant, or the empty string.
func (m *Mem) CheckInvariants(off uint64) string {
	pv, ps := m.P.LoadPair(off)
	vv, vs := m.V.LoadPair(off)
	switch {
	case ps == vs:
		if pv != vv {
			return "equal sequence numbers with different values (Lemma 5.5)"
		}
	case ps == vs+1:
		// Legal in-flight state.
	default:
		return "volatile sequence neither equal to nor one behind persistent (Lemma 5.4)"
	}
	return ""
}
