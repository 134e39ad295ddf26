package faultfuzz

import (
	"fmt"
	"testing"

	"mirror/internal/engine"
	"mirror/internal/pmem"
)

// shardedRecovery is an engine whose recovery runs the pipeline with fixed
// options instead of the ones the runtime asks for.
type shardedRecovery struct {
	engine.Engine
	opts engine.RecoverOptions
}

func (s shardedRecovery) RecoverWith(tr engine.Tracer, _ engine.RecoverOptions) {
	s.Engine.RecoverWith(tr, s.opts)
}

// recoverSharded adapts Spec.NewEngine so Run recovers through the pipeline
// at the given number of workers: one sequential trace, whose batches the
// other workers copy and scan while it runs.
func recoverSharded(shards int) func(engine.Config) engine.Engine {
	return func(cfg engine.Config) engine.Engine {
		return shardedRecovery{engine.New(cfg), engine.RecoverOptions{Parallelism: shards}}
	}
}

// TestShardedAllEnginesAllFaults runs the full fault mix against every
// durable engine and every structure with recovery at two workers: the
// parallel pass runs under the fault model's eviction stress, and the
// survivor must pass the same fsck, invariant and durable-linearizability
// checks as a sequential recovery. The seeds are
// fixed so CI failures reproduce bit for bit.
func TestShardedAllEnginesAllFaults(t *testing.T) {
	all := pmem.FaultSpec{Torn: true, Evict: true, Drop: true}
	for _, structure := range Structures() {
		for _, kind := range durableKinds() {
			t.Run(fmt.Sprintf("%s/%s", structure, kind), func(t *testing.T) {
				t.Parallel()
				fuzzRounds(t, Spec{
					Structure: structure,
					Kind:      kind,
					Faults:    all,
					NewEngine: recoverSharded(2),
					Schedule:  Schedule{Workers: 2, OpsPer: 8, Keys: 6},
				}, []int64{11, 12, 13})
			})
		}
	}
}

// TestShardedWiderCounts spot-checks wider recovery worker counts (3 and 4)
// on the Mirror engines: the parallel pass is not a power-of-two-only
// design.
func TestShardedWiderCounts(t *testing.T) {
	all := pmem.FaultSpec{Torn: true, Evict: true, Drop: true}
	for _, shards := range []int{3, 4} {
		for _, kind := range []engine.Kind{engine.MirrorDRAM, engine.MirrorNVMM} {
			t.Run(fmt.Sprintf("hashtable/%s/shards%d", kind, shards), func(t *testing.T) {
				t.Parallel()
				fuzzRounds(t, Spec{
					Structure: "hashtable",
					Kind:      kind,
					Faults:    all,
					NewEngine: recoverSharded(shards),
					Schedule:  Schedule{Workers: 2, OpsPer: 8, Keys: 6},
				}, []int64{21, 22})
			})
		}
	}
}

// TestShardedDetectable runs the detectability cross-check with recovery at
// two workers: the descriptor rings are scrubbed and the structure rebuilt
// by the parallel pass, and every post-crash verdict must still agree with
// the durable linearizability checker.
func TestShardedDetectable(t *testing.T) {
	all := pmem.FaultSpec{Torn: true, Evict: true, Drop: true}
	for _, kind := range durableKinds() {
		t.Run(fmt.Sprintf("hashtable/%s", kind), func(t *testing.T) {
			t.Parallel()
			fuzzRounds(t, Spec{
				Structure: "hashtable",
				Kind:      kind,
				Faults:    all,
				Detect:    true,
				NewEngine: recoverSharded(2),
				Schedule:  Schedule{Workers: 2, OpsPer: 8, Keys: 6},
			}, []int64{31, 32})
		})
	}
}
