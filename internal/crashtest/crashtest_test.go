package crashtest

import (
	"fmt"
	"testing"
	"time"

	"mirror/internal/engine"
	"mirror/internal/pmem"
)

// sets names the structures under test: the runtime's set kinds.
var sets = []string{"bst", "hashtable", "list", "skiplist"}

func durableKinds() []engine.Kind {
	return []engine.Kind{engine.Izraelevitz, engine.NVTraverse, engine.MirrorDRAM, engine.MirrorNVMM}
}

// TestDurableLinearizability is the central crash suite: every durable
// engine × every structure × every eviction policy, crashes injected at
// varying moments.
func TestDurableLinearizability(t *testing.T) {
	policies := []pmem.CrashPolicy{pmem.CrashDropAll, pmem.CrashKeepAll, pmem.CrashRandom}
	for _, name := range sets {
		for _, kind := range durableKinds() {
			t.Run(fmt.Sprintf("%s/%s", name, kind), func(t *testing.T) {
				t.Parallel()
				round := 0
				for _, policy := range policies {
					for _, lag := range []time.Duration{
						200 * time.Microsecond, 1 * time.Millisecond, 4 * time.Millisecond,
					} {
						round++
						vs := Run(kind, name, Config{
							Policy:    policy,
							FreezeLag: lag,
							Seed:      int64(round) * 31,
						})
						for _, v := range vs {
							t.Errorf("policy=%v lag=%v key=%d: %s (got present=%v, want %s)",
								policy, lag, v.Key, v.Context, v.Got, v.Want)
						}
						if t.Failed() {
							return
						}
					}
				}
			})
		}
	}
}

// TestCrashVeryEarly freezes almost immediately, exercising crashes during
// the first operations. Run builds the structure before the crash window
// opens; crashes that cut its construction are TestExhaustiveCrashPoints'
// and faultfuzz's.
func TestCrashVeryEarly(t *testing.T) {
	for _, name := range sets {
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 5; seed++ {
				vs := Run(engine.MirrorDRAM, name, Config{
					Policy:    pmem.CrashRandom,
					FreezeLag: 0,
					Seed:      seed,
				})
				for _, v := range vs {
					t.Errorf("seed=%d key=%d: %s", seed, v.Key, v.Context)
				}
			}
		})
	}
}

// TestCrashAfterQuiesce lets all workers finish before the crash: every
// operation completed, so every recorded state must survive exactly.
func TestCrashAfterQuiesce(t *testing.T) {
	for _, kind := range durableKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			vs := Run(kind, "hashtable", Config{
				MaxOps:    2000,
				FreezeLag: 2 * time.Second, // workers hit MaxOps first
				Policy:    pmem.CrashDropAll,
				Seed:      99,
			})
			for _, v := range vs {
				t.Errorf("key=%d: %s", v.Key, v.Context)
			}
		})
	}
}
