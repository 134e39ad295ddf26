package crashtest

import (
	"fmt"
	"math/rand"
	"testing"

	"mirror/internal/engine"
	"mirror/internal/pmem"
	"mirror/internal/rt"
)

// sweepOp is one scripted operation.
type sweepOp struct {
	insert bool
	key    uint64
}

// sweepScript is a fixed single-threaded operation sequence exercising
// inserts, duplicate inserts, deletes, re-inserts, and misses.
func sweepScript() []sweepOp {
	var ops []sweepOp
	for k := uint64(1); k <= 8; k++ {
		ops = append(ops, sweepOp{true, k})
	}
	for k := uint64(2); k <= 8; k += 2 {
		ops = append(ops, sweepOp{false, k})
	}
	ops = append(ops,
		sweepOp{true, 2},   // re-insert
		sweepOp{true, 3},   // duplicate (fails)
		sweepOp{false, 99}, // miss (fails)
		sweepOp{true, 10},
		sweepOp{false, 1},
		sweepOp{true, 12},
	)
	return ops
}

// replayScript runs the script on a fresh structure, recording the model
// state after each completed operation. It returns the completed-op model,
// the index of the operation in flight when the freeze hit (-1 if the
// script completed), and whether a freeze occurred.
func replayScript(r *rt.Runtime, structure string, script []sweepOp) (model map[uint64]bool, inflight int, froze bool) {
	model = make(map[uint64]bool)
	inflight = -1
	froze = false
	func() {
		defer func() {
			if r := recover(); r != nil {
				if r != pmem.ErrFrozen {
					panic(r)
				}
				froze = true
				return
			}
		}()
		c := r.NewCtx()
		set := attach(r, c, structure)
		for i, op := range script {
			inflight = i
			if op.insert {
				if set.Insert(c, op.key, op.key) {
					model[op.key] = true
				}
			} else {
				if set.Delete(c, op.key) {
					model[op.key] = false
				}
			}
			inflight = -1
		}
	}()
	return model, inflight, froze
}

// TestExhaustiveCrashPoints places a crash after *every* persistent-device
// operation of a deterministic script, for every durable engine, structure,
// and eviction policy — a small-scale model check of the runtime's recovery
// (rt.Recover: trace, rebuild, repair, drain). Construction is inside the
// window. After each crash+recovery, every key must reflect its last
// completed operation, and the single in-flight operation may have gone
// either way.
func TestExhaustiveCrashPoints(t *testing.T) {
	script := sweepScript()
	keys := map[uint64]bool{}
	for _, op := range script {
		keys[op.key] = true
	}
	policies := []pmem.CrashPolicy{pmem.CrashDropAll, pmem.CrashKeepAll, pmem.CrashRandom}
	for _, name := range sets {
		for _, kind := range durableKinds() {
			t.Run(fmt.Sprintf("%s/%s", name, kind), func(t *testing.T) {
				t.Parallel()
				for _, policy := range policies {
					rng := rand.New(rand.NewSource(17))
					points := 0
					for n := int64(1); ; n++ {
						r, err := rt.Open(engine.Config{Kind: kind, Words: 1 << 17, RootFields: 8, Track: true})
						if err != nil {
							t.Fatal(err)
						}
						r.Engine().FreezeAfter(n)
						model, inflight, froze := replayScript(r, name, script)
						r.Engine().Crash(policy, rng)
						r.Recover()
						c := r.NewCtx()
						set := attach(r, c, name)

						var inflightKey uint64
						var inflightVal bool
						if inflight >= 0 {
							inflightKey = script[inflight].key
							inflightVal = script[inflight].insert
						}
						for key := range keys {
							want, recorded := model[key]
							got := set.Contains(c, key)
							if inflight >= 0 && key == inflightKey {
								if got != want && got != inflightVal {
									t.Fatalf("policy=%v point=%d: in-flight key %d: got %v, allowed %v or %v",
										policy, n, key, got, want, inflightVal)
								}
								continue
							}
							if recorded && got != want {
								t.Fatalf("policy=%v point=%d: key %d: got %v, want %v (completed op lost)",
									policy, n, key, got, want)
							}
							if !recorded && got {
								t.Fatalf("policy=%v point=%d: phantom key %d", policy, n, key)
							}
						}
						points++
						if !froze {
							break // the script completed: every point covered
						}
					}
					if points < 10 {
						t.Fatalf("policy=%v: only %d crash points exercised; countdown not working?", policy, points)
					}
				}
			})
		}
	}
}
