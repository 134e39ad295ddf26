package patomic

// Contended Store test: after every round of concurrent stores the replica
// invariants of §5 (Lemmas 5.3–5.5) must hold, every store must have
// installed exactly once (the sequence number advances by the round's
// store count: Store's CAS loop never gives up and never installs twice),
// the final value must be some goroutine's last store, and the per-Ctx
// statistic shards must sum consistently.

import (
	"sync"
	"testing"
)

func TestExchangeContendedInvariants(t *testing.T) {
	const (
		goroutines = 4
		perRound   = 64
		rounds     = 25
	)
	m := newMem(64)
	initCell(m, 0)
	ctxs := make([]*Ctx, goroutines)
	for g := range ctxs {
		ctxs[g] = &Ctx{}
	}
	next := uint64(1)
	for round := 0; round < rounds; round++ {
		_, seq0 := m.V.LoadPair(cell)
		// Each goroutine stores a disjoint run of distinct values into the
		// one cell; lasts holds each goroutine's final store.
		lasts := make(map[uint64]bool)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			base := next + uint64(g*perRound)
			lasts[base+perRound-1] = true
			wg.Add(1)
			go func(g int, base uint64) {
				defer wg.Done()
				for i := uint64(0); i < perRound; i++ {
					m.Store(ctxs[g], cell, base+i)
				}
			}(g, base)
		}
		wg.Wait()
		next += uint64(goroutines * perRound)

		if msg := m.CheckInvariants(cell); msg != "" {
			t.Fatalf("round %d: %s", round, msg)
		}
		final, seq := m.V.LoadPair(cell)
		if seq-seq0 != goroutines*perRound {
			t.Fatalf("round %d: %d installs, want %d", round, seq-seq0, goroutines*perRound)
		}
		if !lasts[final] {
			t.Fatalf("round %d: final value %d is no goroutine's last store", round, final)
		}
	}
	// Stats must equal the sum of the worker shards exactly. Adoption is
	// lazy — a context that never helped or retried carries no counts and
	// may legitimately remain unregistered.
	h, r := m.Stats()
	t.Logf("helps=%d retries=%d", h, r)
	var shardSum uint64
	for _, c := range ctxs {
		shardSum += c.helps.Load() + c.retries.Load()
		if c.mem == nil && (c.helps.Load() != 0 || c.retries.Load() != 0) {
			t.Error("Ctx holds counts but was never adopted as a shard")
		}
	}
	if h+r != shardSum {
		t.Errorf("Stats() = %d, want the exact worker shard sum %d", h+r, shardSum)
	}
}

// TestCtxTwoMemsPanics checks the Ctx-to-Mem binding: using one context's
// statistics shard with a second Mem must panic rather than corrupt counts.
func TestCtxTwoMemsPanics(t *testing.T) {
	m1 := newMem(64)
	ctx := initCell(m1, 0)
	m1.noteHelp(ctx) // bind to m1
	m2 := newMem(64)
	defer func() {
		if recover() == nil {
			t.Error("shard use with a second Mem should panic")
		}
	}()
	m2.noteHelp(ctx)
}
