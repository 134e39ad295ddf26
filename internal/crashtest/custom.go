package crashtest

import (
	"math/rand"

	"mirror/internal/pmem"
)

// CustomTarget adapts a non-engine durable structure (the hand-made
// baselines: Link-Free, SOFT, Cmap) to the same mid-operation crash
// harness the engine structures get. NewWorker
// returns per-thread insert/delete/contains closures; the lifecycle
// functions map onto the structure's own crash support.
type CustomTarget struct {
	NewWorker func() (insert func(k, v uint64) bool, del func(k uint64) bool, contains func(k uint64) bool)
	Freeze    func()
	Crash     func(policy pmem.CrashPolicy, rng *rand.Rand)
	Recover   func()
}

// RunCustom executes one crash round against a custom durable set and
// returns any durable-linearizability violations, using the same per-key
// single-writer discipline as Run.
func RunCustom(target CustomTarget, cfg Config) []Violation { return round(target, cfg, nil) }
