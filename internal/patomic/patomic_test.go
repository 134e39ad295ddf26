package patomic

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"mirror/internal/pmem"
)

// newMem builds a persistent+volatile replica pair with tracking and the
// flush-elision watermark enabled, as the engines build rep_p.
func newMem(words int) *Mem {
	return &Mem{
		P: pmem.New(pmem.Config{Name: "nvmm", Words: words, Persistent: true, Track: true, Elide: true}),
		V: pmem.New(pmem.Config{Name: "dram", Words: words}),
	}
}

const cell = uint64(8) // a 16-byte aligned test cell

func initCell(m *Mem, v uint64) *Ctx {
	ctx := &Ctx{}
	m.InitCell(ctx, cell, v)
	m.PublishFence(ctx)
	return ctx
}

func TestLoadAfterInit(t *testing.T) {
	m := newMem(64)
	initCell(m, 42)
	if got := m.Load(cell); got != 42 {
		t.Errorf("Load = %d, want 42", got)
	}
	v, s := m.V.LoadPair(cell)
	if v != 42 || s != InitSeq {
		t.Errorf("rep_v pair = (%d,%d), want (42,%d)", v, s, InitSeq)
	}
}

func TestCASSuccessUpdatesBothReplicas(t *testing.T) {
	m := newMem(64)
	ctx := initCell(m, 5)
	ok, old := m.CompareAndSwap(ctx, cell, 5, 10)
	if !ok || old != 5 {
		t.Fatalf("CAS = (%v,%d), want (true,5)", ok, old)
	}
	pv, ps := m.P.LoadPair(cell)
	vv, vs := m.V.LoadPair(cell)
	if pv != 10 || vv != 10 {
		t.Errorf("values (%d,%d), want (10,10)", pv, vv)
	}
	if ps != InitSeq+1 || vs != InitSeq+1 {
		t.Errorf("seqs (%d,%d), want (%d,%d)", ps, vs, InitSeq+1, InitSeq+1)
	}
}

func TestCASFailureLeavesBothReplicas(t *testing.T) {
	m := newMem(64)
	ctx := initCell(m, 5)
	ok, actual := m.CompareAndSwap(ctx, cell, 6, 10)
	if ok {
		t.Fatal("CAS should fail")
	}
	if actual != 5 {
		t.Errorf("actual = %d, want 5", actual)
	}
	if m.Load(cell) != 5 || m.P.Load(cell) != 5 {
		t.Error("failed CAS modified a replica")
	}
}

func TestCASIsDurableBeforeVisible(t *testing.T) {
	m := newMem(64)
	ctx := initCell(m, 5)
	m.CompareAndSwap(ctx, cell, 5, 10)
	// A successful CAS must have fenced the persistent replica.
	if got := m.P.PersistedWord(cell); got != 10 {
		t.Errorf("persisted value = %d, want 10", got)
	}
	if got := m.P.PersistedWord(cell + 1); got != InitSeq+1 {
		t.Errorf("persisted seq = %d, want %d", got, InitSeq+1)
	}
}

func TestStore(t *testing.T) {
	m := newMem(64)
	ctx := initCell(m, 0)
	m.Store(ctx, cell, 99)
	if m.Load(cell) != 99 {
		t.Errorf("Load = %d, want 99", m.Load(cell))
	}
	m.Store(ctx, cell, 99) // same-value store must still succeed
	if _, s := m.V.LoadPair(cell); s != InitSeq+2 {
		t.Errorf("seq = %d, want %d (each store bumps)", s, InitSeq+2)
	}
}

// TestExchange pins that Store displaces whatever the cell holds: one
// install, one sequence bump, replicas in lock step.
func TestExchange(t *testing.T) {
	m := newMem(64)
	ctx := initCell(m, 3)
	m.Store(ctx, cell, 9)
	if m.Load(cell) != 9 {
		t.Errorf("Load = %d, want 9", m.Load(cell))
	}
	if _, s := m.V.LoadPair(cell); s != InitSeq+1 {
		t.Errorf("seq = %d, want %d (one install)", s, InitSeq+1)
	}
	if msg := m.CheckInvariants(cell); msg != "" {
		t.Error(msg)
	}
}

// fetchAdd adds delta to the cell with the CompareAndSwap loop every
// read-modify-write runs over (§4.1.2) and returns the previous value.
func fetchAdd(m *Mem, ctx *Ctx, off, delta uint64) uint64 {
	cur := m.Load(off)
	for {
		ok, actual := m.CompareAndSwap(ctx, off, cur, cur+delta)
		if ok {
			return cur
		}
		cur = actual
	}
}

func TestFetchAdd(t *testing.T) {
	m := newMem(64)
	ctx := initCell(m, 10)
	if old := fetchAdd(m, ctx, cell, 5); old != 10 {
		t.Errorf("fetchAdd returned %d, want 10", old)
	}
	if m.Load(cell) != 15 {
		t.Errorf("Load = %d, want 15", m.Load(cell))
	}
}

// TestHelpCompletesStalledWrite reproduces the Figure 3 scenario: a writer
// installs into rep_p and stalls before mirroring into rep_v; a second
// writer must first help, then perform its own update, and the stalled
// writer's late DWCAS on rep_v must be defeated by the sequence number.
func TestHelpCompletesStalledWrite(t *testing.T) {
	m := newMem(64)
	ctx := initCell(m, 5)
	// p1 stalls after the persistent DWCAS of 5 -> 10 (paper state {10,3}).
	ok, _, _ := m.P.DWCAS(cell, 5, InitSeq, 10, InitSeq+1)
	if !ok {
		t.Fatal("setup DWCAS failed")
	}
	var fs pmem.FlushSet
	m.P.Flush(&fs, cell)
	m.P.Fence(&fs)
	// p2 now writes 5 again (paper state {5,4}). It must help first.
	ok2, old := m.CompareAndSwap(ctx, cell, 10, 5)
	if !ok2 || old != 10 {
		t.Fatalf("p2 CAS = (%v,%d), want (true,10): help failed", ok2, old)
	}
	// p1 wakes up and retries its stale volatile mirror {5,2} -> {10,3}.
	if swapped, _, _ := m.V.DWCAS(cell, 5, InitSeq, 10, InitSeq+1); swapped {
		t.Fatal("stale mirror DWCAS succeeded; ABA the sequence number must prevent")
	}
	if got := m.Load(cell); got != 5 {
		t.Errorf("final value = %d, want 5", got)
	}
	if msg := m.CheckInvariants(cell); msg != "" {
		t.Error(msg)
	}
}

// TestLoadNeverSeesUnpersistedValue drives a writer that stalls between the
// persistent install and the volatile mirror; a load during the stall must
// return the old value (new value not yet linearized).
func TestLoadNeverSeesUnpersistedValue(t *testing.T) {
	m := newMem(64)
	initCell(m, 1)
	ok, _, _ := m.P.DWCAS(cell, 1, InitSeq, 2, InitSeq+1)
	if !ok {
		t.Fatal("setup failed")
	}
	// No flush yet: 2 is neither persisted nor visible.
	if got := m.Load(cell); got != 1 {
		t.Errorf("Load = %d, want 1 (in-flight write must be invisible)", got)
	}
}

func TestCheckInvariantsDetectsViolation(t *testing.T) {
	m := newMem(64)
	initCell(m, 1)
	m.V.Store(cell, 7) // corrupt: same seq, different value
	if msg := m.CheckInvariants(cell); msg == "" {
		t.Error("corrupted cell passed invariant check")
	}
	m2 := newMem(64)
	initCell(m2, 1)
	m2.V.Store(cell+1, InitSeq+5) // volatile seq ahead
	if msg := m2.CheckInvariants(cell); msg == "" {
		t.Error("seq-ahead cell passed invariant check")
	}
}

func TestConcurrentFetchAddExact(t *testing.T) {
	m := newMem(64)
	initCell(m, 0)
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := &Ctx{}
			for i := 0; i < perWorker; i++ {
				fetchAdd(m, ctx, cell, 1)
			}
		}()
	}
	wg.Wait()
	want := uint64(workers * perWorker)
	if got := m.Load(cell); got != want {
		t.Errorf("counter = %d, want %d", got, want)
	}
	v, s := m.V.LoadPair(cell)
	if v != want || s != InitSeq+want {
		t.Errorf("(v,s) = (%d,%d), want (%d,%d)", v, s, want, InitSeq+want)
	}
	if msg := m.CheckInvariants(cell); msg != "" {
		t.Error(msg)
	}
	if got := m.P.PersistedWord(cell); got != want {
		t.Errorf("persisted = %d, want %d", got, want)
	}
}

// TestConcurrentCASUniqueWinners verifies classic CAS semantics through the
// Mirror cell: for each round exactly one of the racers observes success.
func TestConcurrentCASUniqueWinners(t *testing.T) {
	m := newMem(64)
	initCell(m, 0)
	const workers = 6
	const rounds = 300
	var wg sync.WaitGroup
	wins := make([]int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			ctx := &Ctx{}
			for r := 0; r < rounds; r++ {
				if ok, _ := m.CompareAndSwap(ctx, cell, uint64(r), uint64(r+1)); ok {
					wins[id]++
				}
				// Wait until the round is over before the next.
				for m.Load(cell) < uint64(r+1) {
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, n := range wins {
		total += n
	}
	if total != rounds {
		t.Errorf("total wins = %d, want %d", total, rounds)
	}
	if got := m.Load(cell); got != rounds {
		t.Errorf("final = %d, want %d", got, rounds)
	}
}

// TestInvariantUnderStress samples Lemmas 5.3–5.5 while writers run. The
// check itself races (it reads two pairs non-atomically), so it only
// asserts the volatile value is never *ahead* of any value that was ever
// installed — concretely for a monotone counter: V value <= P value at all
// times when sampled in that order.
func TestInvariantUnderStress(t *testing.T) {
	m := newMem(64)
	initCell(m, 0)
	const workers = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := &Ctx{}
			for {
				select {
				case <-stop:
					return
				default:
					fetchAdd(m, ctx, cell, 1)
				}
			}
		}()
	}
	for i := 0; i < 50000; i++ {
		vv, _ := m.V.LoadPair(cell)
		pv, _ := m.P.LoadPair(cell)
		// P sampled after V on a monotone counter: pv >= vv must hold.
		if pv < vv {
			t.Errorf("volatile value %d ahead of persistent %d", vv, pv)
			break
		}
	}
	close(stop)
	wg.Wait()
	if msg := m.CheckInvariants(cell); msg != "" {
		t.Error(msg)
	}
}

func TestQuickStoreLoadRoundTrip(t *testing.T) {
	m := newMem(64)
	ctx := initCell(m, 0)
	f := func(v uint64) bool {
		m.Store(ctx, cell, v)
		if m.Load(cell) != v {
			return false
		}
		return m.CheckInvariants(cell) == ""
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestCrashRecoverCell crashes mid-workload at random device-operation
// counts and verifies that after recovery (a) the cell's replicas satisfy
// the invariants, (b) the recovered value is one that was actually written,
// and (c) the value persisted by the last *completed* operation survives.
func TestCrashRecoverCell(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for round := 0; round < 50; round++ {
		m := newMem(64)
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
				completed = i
			}
		}()
		m.P.Freeze()
		m.V.Freeze()
		policy := pmem.CrashPolicy(rng.Intn(3))
		m.P.Crash(policy, rng)
		m.V.Crash(policy, rng)
		m.RecoverRange(cell, CellWords)

		v, s := m.V.LoadPair(cell)
		pv, ps := m.P.LoadPair(cell)
		if v != pv || s != ps {
			t.Fatalf("round %d: recovery left replicas different: (%d,%d) vs (%d,%d)",
				round, v, s, pv, ps)
		}
		if v > completed+1 {
			t.Fatalf("round %d: recovered value %d beyond any write (completed %d)",
				round, v, completed)
		}
		// The last completed store fenced its value; a later in-flight
		// store may have overwritten it, so the recovered value must be
		// either the completed value or the single in-flight one.
		if v != completed && v != completed+1 && completed > 0 {
			// Torn unfenced persistence can leave an older value only
			// if the newer one never fenced — but `completed` did.
			t.Fatalf("round %d: recovered %d, want %d or %d", round, v, completed, completed+1)
		}
		if msg := m.CheckInvariants(cell); msg != "" {
			t.Errorf("round %d: %s", round, msg)
		}
	}
}

// TestCrashDuringConcurrentWriters freezes the devices while several
// goroutines race on one cell, then recovers and checks the replica
// invariants and that the recovered value was plausibly installed.
func TestCrashDuringConcurrentWriters(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 30; round++ {
		m := newMem(64)
		initCell(m, 0)
		const workers = 4
		var wg sync.WaitGroup
		m.P.FreezeAfter(int64(rng.Intn(400) + 50))
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() {
					if r := recover(); r != nil && r != pmem.ErrFrozen {
						panic(r)
					}
				}()
				ctx := &Ctx{}
				for i := 0; i < 5000; i++ {
					fetchAdd(m, ctx, cell, 1)
				}
			}()
		}
		wg.Wait()
		m.P.Freeze()
		m.V.Freeze()
		m.P.Crash(pmem.CrashRandom, rng)
		m.V.Crash(pmem.CrashRandom, rng)
		m.RecoverRange(cell, CellWords)
		if msg := m.CheckInvariants(cell); msg != "" {
			t.Errorf("round %d: %s", round, msg)
		}
		v, _ := m.V.LoadPair(cell)
		if v > workers*5000 {
			t.Errorf("round %d: impossible recovered value %d", round, v)
		}
	}
}

func BenchmarkMirrorLoad(b *testing.B) {
	m := newMem(64)
	initCell(m, 7)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			m.Load(cell)
		}
	})
}

func BenchmarkMirrorCAS(b *testing.B) {
	m := newMem(1024)
	ctx := initCell(m, 0)
	for i := 0; i < b.N; i++ {
		m.Store(ctx, cell, uint64(i))
	}
}

func TestStatsHelpPath(t *testing.T) {
	m := newMem(64)
	ctx := initCell(m, 5)
	h0, _ := m.Stats()
	// Stage the Figure 3 stall: persistent replica one sequence ahead.
	if ok, _, _ := m.P.DWCAS(cell, 5, InitSeq, 10, InitSeq+1); !ok {
		t.Fatal("setup failed")
	}
	m.CompareAndSwap(ctx, cell, 10, 11) // must help first
	h1, _ := m.Stats()
	if h1 != h0+1 {
		t.Errorf("helps = %d, want %d (help path not counted)", h1, h0+1)
	}
}

func TestStatsRetriesUnderContention(t *testing.T) {
	m := newMem(64)
	initCell(m, 0)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := &Ctx{}
			for i := 0; i < 3000; i++ {
				fetchAdd(m, ctx, cell, 1)
			}
		}()
	}
	wg.Wait()
	if v := m.Load(cell); v != 12000 {
		t.Fatalf("counter = %d", v)
	}
	// Retries may or may not occur depending on scheduling; the counter
	// must simply be readable and consistent.
	h, r := m.Stats()
	t.Logf("helps=%d retries=%d", h, r)
}

// TestRecoverRangeCopiesOddSpan pins the recovery of an object whose plain
// words make its span odd — one cell and one plain word, three words: all
// three reach rep_v. A copy trimmed to whole cells would leave the plain
// word, a key or an upper link, zero in rep_v without any error. The
// subtest names the policy: rep_p carries the watermark.
func TestRecoverRangeCopiesOddSpan(t *testing.T) {
	t.Run("elide=on", func(t *testing.T) {
		m := newMem(64)
		ctx := &Ctx{}
		m.InitCell(ctx, cell, 7)
		m.InitWord(ctx, cell+CellWords, 42)
		m.PublishFence(ctx)
		m.P.Freeze()
		m.V.Freeze()
		rng := rand.New(rand.NewSource(1))
		m.P.Crash(pmem.CrashDropAll, rng)
		m.V.Crash(pmem.CrashDropAll, rng)
		m.RecoverRange(cell, CellWords+1)
		if v, s := m.V.LoadPair(cell); v != 7 || s != InitSeq {
			t.Errorf("recovered cell (%d, %d), want (7, %d)", v, s, InitSeq)
		}
		if got := m.Load(cell + CellWords); got != 42 {
			t.Errorf("recovered plain word %d, want 42", got)
		}
	})
}
