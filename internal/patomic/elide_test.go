package patomic

import (
	"math/rand"
	"testing"

	"mirror/internal/pmem"
)

// costOf returns the (flushes, fences) the persistent replica charged for fn.
func costOf(m *Mem, fn func()) (flushes, fences uint64) {
	fl0, fe0 := m.P.Counters()
	fn()
	fl1, fe1 := m.P.Counters()
	return fl1 - fl0, fe1 - fe0
}

// TestCASFlushAccounting pins the exact flush+fence cost of the Figure 4
// paths: one flush and one fence for an owner's install and for a helper's,
// none for a failure that installs nothing. The subtest names rep_p's
// policy: pending lines recorded, empty fences skipped.
func TestCASFlushAccounting(t *testing.T) {
	t.Run("elide=on", func(t *testing.T) {
		m := newMem(64)
		ctx := initCell(m, 5)

		// Owner install: exactly one flush and one fence.
		if fl, fe := costOf(m, func() { m.CompareAndSwap(ctx, cell, 5, 10) }); fl != 1 || fe != 1 {
			t.Errorf("owner CAS cost (%d flushes, %d fences), want (1, 1)", fl, fe)
		}
		// Value-mismatch failure: no install, no durability work.
		if fl, fe := costOf(m, func() { m.CompareAndSwap(ctx, cell, 999, 1) }); fl != 0 || fe != 0 {
			t.Errorf("failed CAS cost (%d flushes, %d fences), want (0, 0)", fl, fe)
		}

		// Helper path: stage rep_p one sequence ahead (an owner that
		// installed but has not yet flushed), then run a CAS whose
		// expected value does not match. It must complete the stranger's
		// install — one flush, one fence, one help — and then fail
		// without further cost.
		m.P.DWCAS(cell, 10, InitSeq+1, 77, InitSeq+2)
		h0, _ := m.Stats()
		fl, fe := costOf(m, func() {
			if ok, cur := m.CompareAndSwap(ctx, cell, 999, 1); ok || cur != 77 {
				t.Fatalf("helping CAS = (%v, %d), want (false, 77)", ok, cur)
			}
		})
		if fl != 1 || fe != 1 {
			t.Errorf("helper CAS cost (%d flushes, %d fences), want (1, 1)", fl, fe)
		}
		if h1, _ := m.Stats(); h1 != h0+1 {
			t.Errorf("helps = %d, want %d", h1, h0+1)
		}
		if got := m.P.PersistedWord(cell); got != 77 {
			t.Errorf("helped install not on media: %d, want 77", got)
		}
		if v, s := m.V.LoadPair(cell); v != 77 || s != InitSeq+2 {
			t.Errorf("helped install not mirrored: (%d, %d)", v, s)
		}
	})
}

// TestElisionCountersZeroQuiesced pins that no elision path fires in a
// quiesced single-threaded run: every counter the harness exports must
// stay zero across a mix of writes.
func TestElisionCountersZeroQuiesced(t *testing.T) {
	m := newMem(64)
	ctx := initCell(m, 0)
	m.CompareAndSwap(ctx, cell, 0, 1)
	m.Store(ctx, cell, 2)
	fetchAdd(m, ctx, cell, 4)
	elFl, elFe, _ := m.P.ElisionCounters()
	if elFl != 0 || elFe != 0 {
		t.Fatalf("quiesced elision counters = (elidedFlushes=%d, elidedFences=%d), want all 0",
			elFl, elFe)
	}
}

// TestRelaxedCASAccounting pins the registry-deferred install: zero
// immediate cost, visible before durable, committed by CommitRelaxed.
func TestRelaxedCASAccounting(t *testing.T) {
	m := newMem(64)
	ctx := initCell(m, 5)

	if fl, fe := costOf(m, func() {
		if ok, _ := m.CAS(ctx, cell, 5, 10, Auxiliary); !ok {
			t.Fatal("relaxed CAS failed")
		}
	}); fl != 0 || fe != 0 {
		t.Errorf("relaxed CAS cost (%d flushes, %d fences), want (0, 0)", fl, fe)
	}
	if got := m.P.RelaxedPending(); got != 1 {
		t.Fatalf("RelaxedPending = %d, want 1", got)
	}
	if got := m.Load(cell); got != 10 {
		t.Fatalf("relaxed install not visible: %d", got)
	}

	// The registry drain commits the line: one flush, one fence.
	if fl, fe := costOf(m, func() { m.P.CommitRelaxed(&ctx.FS) }); fl != 1 || fe != 1 {
		t.Errorf("CommitRelaxed cost (%d flushes, %d fences), want (1, 1)", fl, fe)
	}
	if got := m.P.RelaxedPending(); got != 0 {
		t.Fatalf("RelaxedPending after commit = %d, want 0", got)
	}
	if v, s := m.P.PersistedWord(cell), m.P.PersistedWord(cell+1); v != 10 || s != InitSeq+1 {
		t.Fatalf("relaxed install not on media after commit: (%d, %d)", v, s)
	}
	if msg := m.CheckInvariants(cell); msg != "" {
		t.Error(msg)
	}

	// Value-mismatch failure costs nothing and registers nothing.
	if fl, fe := costOf(m, func() { m.CAS(ctx, cell, 999, 1, Auxiliary) }); fl != 0 || fe != 0 {
		t.Errorf("failed relaxed CAS cost (%d flushes, %d fences), want (0, 0)", fl, fe)
	}
	if got := m.P.RelaxedPending(); got != 0 {
		t.Errorf("failed relaxed CAS registered a line: pending=%d", got)
	}
}

// TestInitCellBatching pins the deferred-init path: two cells sharing one
// cache line cost one flush and one fence at PublishFence, with the saved
// flush counted as elided; an empty PublishFence costs nothing.
func TestInitCellBatching(t *testing.T) {
	m := newMem(64)
	ctx := &Ctx{}
	fl, fe := costOf(m, func() {
		m.InitCell(ctx, 8, 1)  // line 1
		m.InitCell(ctx, 10, 2) // same line
		m.PublishFence(ctx)
	})
	if fl != 1 || fe != 1 {
		t.Errorf("two-cell one-line init cost (%d flushes, %d fences), want (1, 1)", fl, fe)
	}
	elFl, elFe, _ := m.P.ElisionCounters()
	if elFl != 1 || elFe != 0 {
		t.Errorf("elided (flushes=%d, fences=%d), want (1, 0)", elFl, elFe)
	}
	if m.P.PersistedWord(8) != 1 || m.P.PersistedWord(10) != 2 {
		t.Error("batched init not on media after PublishFence")
	}

	// A fence with nothing in flight orders nothing: skipped and counted.
	if fl, fe := costOf(m, func() { m.PublishFence(ctx) }); fl != 0 || fe != 0 {
		t.Errorf("empty PublishFence cost (%d, %d), want (0, 0)", fl, fe)
	}
}

// TestExchangeElidedCrashSweep crashes a Store workload on an eliding cell
// at seeded points under the eviction+drop adversary. The recovered cell
// must satisfy the Lemma 5.3–5.5 invariants and hold either the last
// completed store's value or the single in-flight one:
// an eviction may put a line on media early, but it must never stand in
// for the fence a completed operation relies on.
func TestExchangeElidedCrashSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for round := 0; round < 40; round++ {
		m := newMem(64)
		m.P.InjectFaults(pmem.NewFaultModel(int64(round+1), pmem.FaultSpec{Evict: true, Drop: true}))
		ctx := initCell(m, 0)
		var completed uint64
		m.P.FreezeAfter(int64(rng.Intn(200) + 1))
		func() {
			defer func() {
				if r := recover(); r != nil && r != pmem.ErrFrozen {
					panic(r)
				}
			}()
			for i := uint64(1); i <= 1000; i++ {
				m.Store(ctx, cell, i)
				if v := m.Load(cell); v != i {
					t.Errorf("round %d: Load after Store(%d) = %d", round, i, v)
				}
				completed = i
			}
		}()
		m.P.Freeze()
		m.V.Freeze()
		m.P.Crash(pmem.CrashDropAll, rng)
		m.V.Crash(pmem.CrashDropAll, rng)
		m.RecoverRange(cell, CellWords)

		v, s := m.V.LoadPair(cell)
		pv, ps := m.P.LoadPair(cell)
		if v != pv || s != ps {
			t.Fatalf("round %d: recovery left replicas different: (%d,%d) vs (%d,%d)",
				round, v, s, pv, ps)
		}
		if v != completed && v != completed+1 {
			t.Fatalf("round %d: recovered %d, want %d or %d", round, v, completed, completed+1)
		}
		if msg := m.CheckInvariants(cell); msg != "" {
			t.Errorf("round %d: %s", round, msg)
		}
	}
}
