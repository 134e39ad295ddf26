package engine

import "fmt"

// Bug names a deliberately seeded durability bug for NewBroken.
type Bug int

const (
	// BugDropOwnFlush removes the flush+fence between a writer's own
	// install into rep_p and its mirror into rep_v (the help and failure
	// paths keep theirs): Store and CAS install values that are
	// visible — and so complete operations — before they are durable. A
	// crash whose line fate is "drop" or "torn" loses a completed operation.
	BugDropOwnFlush Bug = iota
	// BugEvictionAdvancesWatermark breaks the flush-elision layer: the
	// fault model's early eviction advances the persisted-epoch watermark
	// as if it were a fenced commit. A writer whose line was evicted then
	// elides its flush+fence on the strength of the fake watermark, so its
	// completed operation is visible but unfenced. Caught under evict+drop
	// faults.
	BugEvictionAdvancesWatermark
)

// NewBroken returns a MirrorDRAM engine with one seeded durability bug and
// every other path — reads, allocation, initialization, crash, recovery —
// unmodified. Test support only: it exists so the fault fuzzer can prove it
// detects, shrinks, and replays a real violation of each kind, and the
// acceptance bar for any fuzzer change is that it still does.
func NewBroken(cfg Config, bug Bug) Engine {
	cfg.Kind = MirrorDRAM
	cfg.SetDefaults()
	e := newMirror(cfg)
	switch bug {
	case BugDropOwnFlush:
		e.mem.OnInstallForTest(func(uint64) bool { return true })
	case BugEvictionAdvancesWatermark:
		e.mem.P.BreakWatermarkForTest()
	default:
		panic(fmt.Sprintf("engine: unknown seeded bug %d", int(bug)))
	}
	return e
}
