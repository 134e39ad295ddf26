// Package crashtest verifies durable linearizability (§2.3) end to end:
// worker threads run operations on a structure while a controller freezes
// the devices at an arbitrary moment; the simulated power failure is taken
// under a chosen eviction adversary; recovery runs; and the recovered
// structure is checked against each worker's record of *completed*
// operations.
//
// The check uses one writer per key (readers roam freely), so the expected
// post-crash state of every key is exact: the state left by the last
// completed operation on it. The single operation a worker had in flight
// when the crash hit is allowed to have either taken effect or not — and
// nothing else. Phantom keys that no worker ever successfully inserted
// must not appear.
package crashtest

import (
	"math/rand"
	"sync"
	"time"

	"mirror/internal/engine"
	"mirror/internal/pmem"
	"mirror/internal/rt"
	"mirror/internal/structures"
)

// Config tunes one crash round.
type Config struct {
	Workers   int           // concurrent writers (default 4)
	KeysPer   int           // keys owned by each writer (default 32)
	MaxOps    int           // op cap per worker if the freeze comes late
	FreezeLag time.Duration // controller delay before freezing
	Policy    pmem.CrashPolicy
	Seed      int64
	Words     int // engine device capacity
}

func (c *Config) setDefaults() {
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.KeysPer == 0 {
		c.KeysPer = 32
	}
	if c.MaxOps == 0 {
		c.MaxOps = 30000
	}
	if c.Words == 0 {
		c.Words = 1 << 21
	}
}

// Violation describes a durable-linearizability failure.
type Violation struct {
	Key     uint64
	Got     bool
	Want    string
	Context string
}

type workerLog struct {
	completed   map[uint64]bool // key -> present after last completed op
	inflight    uint64          // key of the op possibly cut by the crash (0 = none)
	inflightIns bool
}

// Run executes one crash round against the named structure on a durable
// engine kind and returns any violations found. The structure lives in a
// runtime (internal/rt) and recovers through it, as a user's does; it is
// RunCustom over that lifecycle, plus a check that every present key still
// holds its value.
func Run(kind engine.Kind, structure string, cfg Config) []Violation {
	cfg.setDefaults()
	if !kind.Durable() {
		panic("crashtest: engine kind is not durable")
	}
	r, err := rt.Open(engine.Config{Kind: kind, Words: cfg.Words, RootFields: 8, Track: true})
	if err != nil {
		panic(err)
	}
	set := attach(r, r.NewCtx(), structure)
	target := CustomTarget{
		NewWorker: func() (func(k, v uint64) bool, func(k uint64) bool, func(k uint64) bool) {
			c := r.NewCtx()
			return func(k, v uint64) bool { return set.Insert(c, k, v) },
				func(k uint64) bool { return set.Delete(c, k) },
				func(k uint64) bool { return set.Contains(c, k) }
		},
		Freeze: r.Freeze,
		Crash:  r.Engine().Crash,
		Recover: func() {
			r.Recover()
			set = attach(r, r.NewCtx(), structure)
		},
	}
	return round(target, cfg, func() func(k uint64) (uint64, bool) {
		c := r.NewCtx()
		return func(k uint64) (uint64, bool) { return set.Get(c, k) }
	})
}

// attach returns the runtime's set of the named kind at root field 0 (a
// hash table of 64 buckets), initializing it if the root is unset.
func attach(r *rt.Runtime, c *engine.Ctx, structure string) structures.Set {
	h, err := r.At(c, structure, 0, 64)
	if err != nil {
		panic(err)
	}
	return h.(structures.Set)
}

// round is one crash round: single-writer workers and roaming readers run
// until the freeze, the crash and recovery are taken, and every key is
// checked against its writer's record. values, when non-nil, makes a
// post-recovery reader of stored values, so present keys are checked for
// torn values too.
func round(target CustomTarget, cfg Config, values func() func(k uint64) (uint64, bool)) []Violation {
	cfg.setDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	logs := make([]workerLog, cfg.Workers)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil && r != pmem.ErrFrozen {
					panic(r)
				}
			}()
			insert, del, _ := target.NewWorker()
			lrng := rand.New(rand.NewSource(cfg.Seed*1000 + int64(w)))
			logs[w].completed = make(map[uint64]bool)
			base := uint64(w*cfg.KeysPer + 1)
			for i := 0; i < cfg.MaxOps; i++ {
				key := base + uint64(lrng.Intn(cfg.KeysPer))
				ins := lrng.Intn(2) == 0
				logs[w].inflight, logs[w].inflightIns = key, ins
				if ins {
					if insert(key, key) {
						logs[w].completed[key] = true
					}
				} else {
					if del(key) {
						logs[w].completed[key] = false
					}
				}
				logs[w].inflight = 0
			}
		}(w)
	}
	// Roaming readers stress the read path during the crash window.
	stopReaders := make(chan struct{})
	var rwg sync.WaitGroup
	for r := 0; r < 2; r++ {
		rwg.Add(1)
		go func(seed int64) {
			defer rwg.Done()
			defer func() {
				if r := recover(); r != nil && r != pmem.ErrFrozen {
					panic(r)
				}
			}()
			_, _, contains := target.NewWorker()
			lrng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stopReaders:
					return
				default:
					contains(uint64(lrng.Intn(cfg.Workers*cfg.KeysPer) + 1))
				}
			}
		}(cfg.Seed*77 + int64(r))
	}

	time.Sleep(cfg.FreezeLag)
	target.Freeze()
	wg.Wait()
	close(stopReaders)
	rwg.Wait()

	target.Crash(cfg.Policy, rng)
	target.Recover()

	insert, del, contains := target.NewWorker()
	var get func(k uint64) (uint64, bool)
	if values != nil {
		get = values()
	}
	var violations []Violation
	for w := 0; w < cfg.Workers; w++ {
		lg := &logs[w]
		base := uint64(w*cfg.KeysPer + 1)
		for key := base; key < base+uint64(cfg.KeysPer); key++ {
			want, recorded := lg.completed[key]
			got := contains(key)
			if key == lg.inflight {
				// The cut operation may or may not have taken effect:
				// allowed outcomes are the recorded state or the state
				// its completion would have produced.
				if got != want && got != lg.inflightIns {
					violations = append(violations, Violation{
						Key: key, Got: got,
						Want:    "recorded or in-flight outcome",
						Context: "in-flight operation",
					})
				}
				continue
			}
			if recorded && got != want {
				violations = append(violations, Violation{
					Key: key, Got: got,
					Want:    boolName(want),
					Context: "completed operation lost",
				})
			}
			if !recorded && got {
				// Never successfully inserted by its single writer.
				violations = append(violations, Violation{
					Key: key, Got: got,
					Want:    "absent",
					Context: "phantom key",
				})
			}
			if got && get != nil {
				if v, ok := get(key); !ok || v != key {
					violations = append(violations, Violation{
						Key: key, Got: got,
						Want:    "value == key",
						Context: "torn value after recovery",
					})
				}
			}
		}
	}
	// The structure must remain operational after recovery.
	probe := uint64(cfg.Workers*cfg.KeysPer + 100)
	if !insert(probe, 1) || !contains(probe) || !del(probe) {
		violations = append(violations, Violation{
			Key: probe, Want: "operational structure", Context: "post-recovery ops failed",
		})
	}
	return violations
}

func boolName(b bool) string {
	if b {
		return "present"
	}
	return "absent"
}
