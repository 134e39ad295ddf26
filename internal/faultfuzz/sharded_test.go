package faultfuzz

import (
	"fmt"
	"testing"

	"mirror/internal/engine"
	"mirror/internal/pmem"
)

// TestShardedAllEnginesAllFaults runs the full fault mix against every
// durable engine and every structure on a 2-shard engine: per-shard
// independent fault models, a crash trigger armed on one shard while the
// others keep their own adversaries, and shard-concurrent recovery. The
// seeds are fixed so CI failures reproduce bit for bit.
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
					Shards:    2,
					Schedule:  Schedule{Workers: 2, OpsPer: 8, Keys: 6},
				}, []int64{11, 12, 13})
			})
		}
	}
}

// TestShardedWiderCounts spot-checks wider shard counts (3 and 4) on the
// Mirror engines: the hash partition is not a power-of-two-only design, and
// the trigger shard (CrashAt mod shards) must cycle through every shard.
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
					Shards:    shards,
					Schedule:  Schedule{Workers: 2, OpsPer: 8, Keys: 6},
				}, []int64{21, 22})
			})
		}
	}
}

// TestShardedDetectable runs the detectability cross-check on 2-shard
// Mirror engines: descriptor slots and operation effects split across
// shards (client c's slot on shard c mod 2, effects wherever the key
// hashes), and every post-crash verdict must still agree with the durable
// linearizability checker.
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
				Shards:    2,
				Schedule:  Schedule{Workers: 2, OpsPer: 8, Keys: 6},
			}, []int64{31, 32})
		})
	}
}
