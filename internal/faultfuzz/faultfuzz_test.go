package faultfuzz

import (
	"fmt"
	"testing"

	"mirror/internal/crashtest"
	"mirror/internal/engine"
	"mirror/internal/pmem"
	"mirror/internal/zuriel"
)

func durableKinds() []engine.Kind {
	return []engine.Kind{engine.Izraelevitz, engine.NVTraverse, engine.MirrorDRAM, engine.MirrorNVMM}
}

// fuzzRounds runs the spec at several seeded crash placements (sampled
// from a dry run's op count) and reports every failure to t.
func fuzzRounds(t *testing.T, spec Spec, seeds []int64) {
	t.Helper()
	fired := 0
	for _, seed := range seeds {
		spec.Seed = seed
		total := Calibrate(spec)
		if total <= 0 {
			t.Fatalf("%v: calibration returned %d device ops", spec, total)
		}
		for _, frac := range []int64{4, 2, 3} {
			spec.Schedule.CrashAt = 1 + (seed*2654435761+total/frac)%total
			if spec.Schedule.CrashAt < 1 {
				spec.Schedule.CrashAt = 1
			}
			res := Run(spec)
			for _, v := range res.Violations {
				t.Errorf("%v: %s", spec, v)
			}
			if t.Failed() {
				return
			}
			if res.CrashedAt != 0 {
				fired++
			}
		}
	}
	if fired == 0 {
		t.Fatalf("%v: the crash trigger never fired mid-flight in %d rounds", spec, 3*len(seeds))
	}
}

// TestAllEnginesAllFaults exercises torn+evict+drop against every durable
// engine and every structure: the unmodified engines must survive any
// crash placement with verify + linearize clean.
func TestAllEnginesAllFaults(t *testing.T) {
	all := pmem.FaultSpec{Torn: true, Evict: true, Drop: true}
	for _, structure := range Structures() {
		for _, kind := range durableKinds() {
			structure, kind := structure, kind
			t.Run(fmt.Sprintf("%s/%s", structure, kind), func(t *testing.T) {
				t.Parallel()
				fuzzRounds(t, Spec{
					Structure: structure,
					Kind:      kind,
					Faults:    all,
					Schedule:  Schedule{Workers: 2, OpsPer: 8, Keys: 6},
				}, []int64{1, 2, 3})
			})
		}
	}
}

// TestDetectableAllEngines runs the detectability cross-check against every
// durable engine and every structure under the full fault mix: each
// post-crash Detect verdict must agree with durable linearizability, the
// crash-cut operation must be resolvable by its verdict, and the
// exactly-once replay must leave a linearizable history with no duplicated
// or lost effect.
func TestDetectableAllEngines(t *testing.T) {
	all := pmem.FaultSpec{Torn: true, Evict: true, Drop: true}
	for _, structure := range Structures() {
		for _, kind := range durableKinds() {
			structure, kind := structure, kind
			t.Run(fmt.Sprintf("%s/%s", structure, kind), func(t *testing.T) {
				t.Parallel()
				fuzzRounds(t, Spec{
					Structure: structure,
					Kind:      kind,
					Faults:    all,
					Detect:    true,
					Schedule:  Schedule{Workers: 2, OpsPer: 8, Keys: 6},
				}, []int64{5, 6, 7})
			})
		}
	}
}

// broken adapts engine.NewBroken to Spec.NewEngine.
func broken(bug engine.Bug) func(engine.Config) engine.Engine {
	return func(cfg engine.Config) engine.Engine { return engine.NewBroken(cfg, bug) }
}

// TestDetectDoesNotMaskBrokenMirror re-runs the broken-engine hunt with
// detectability enabled: a verdict that (truthfully) reads Committed for an
// operation whose install was dropped must make the cross-check fail, not
// absolve it — the history transformation obliges the op to take effect.
func TestDetectDoesNotMaskBrokenMirror(t *testing.T) {
	base := Spec{
		Structure: "list",
		Kind:      engine.MirrorDRAM,
		Faults:    pmem.FaultSpec{Torn: true, Drop: true},
		NewEngine: broken(engine.BugDropOwnFlush),
		Detect:    true,
		Schedule:  Schedule{Workers: 1, OpsPer: 10, Keys: 4},
	}
	attempts := 0
	for seed := int64(1); seed <= 30; seed++ {
		spec := base
		spec.Seed = seed
		total := Calibrate(spec)
		for _, frac := range []int64{2, 3, 4, 5} {
			spec.Schedule.CrashAt = 1 + total*(frac-1)/frac%total
			attempts++
			if res := Run(spec); res.Failed() {
				t.Logf("caught after %d attempts: %v\n  %s", attempts, spec, res.Violations[0])
				small, sres := Shrink(spec, res)
				if !sres.Failed() {
					t.Fatalf("shrink lost the failure: %v", small)
				}
				if !small.Detect {
					t.Fatalf("shrink dropped the detect flag: %v", small)
				}
				return
			}
		}
	}
	t.Fatalf("seeded durability bug not caught with detectability enabled in %d attempts", attempts)
}

// TestIndividualFaults exercises each fault behavior in isolation (plus
// concurrent workers) on one structure per behavior.
func TestIndividualFaults(t *testing.T) {
	cases := []struct {
		structure string
		faults    pmem.FaultSpec
	}{
		{"list", pmem.FaultSpec{Torn: true}},
		{"hashtable", pmem.FaultSpec{Evict: true}},
		{"skiplist", pmem.FaultSpec{Drop: true}},
		{"bst", pmem.FaultSpec{Torn: true, Drop: true}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("%s/%s", tc.structure, tc.faults), func(t *testing.T) {
			t.Parallel()
			fuzzRounds(t, Spec{
				Structure: tc.structure,
				Kind:      engine.MirrorDRAM,
				Faults:    tc.faults,
				Schedule:  Schedule{Workers: 3, OpsPer: 8, Keys: 8},
			}, []int64{11, 12})
		})
	}
}

// TestBrokenMirrorCaught is the fuzzer's acceptance self-test: a Mirror
// engine whose write path skips the own-install flush+fence (test-only
// bug, engine.BugDropOwnFlush) must be caught within a bounded budget,
// the failing spec must shrink, and replaying the printed (seed, schedule)
// reproducer must deterministically reproduce the same failing media image.
func TestBrokenMirrorCaught(t *testing.T) {
	base := Spec{
		Structure: "list",
		Kind:      engine.MirrorDRAM,
		Faults:    pmem.FaultSpec{Torn: true, Drop: true},
		NewEngine: broken(engine.BugDropOwnFlush),
		// Workers=1 keeps every attempt exactly replayable.
		Schedule: Schedule{Workers: 1, OpsPer: 10, Keys: 4},
	}
	var caught *Spec
	var firstFail *Result
	attempts := 0
hunt:
	for seed := int64(1); seed <= 30; seed++ {
		spec := base
		spec.Seed = seed
		total := Calibrate(spec)
		for _, frac := range []int64{2, 3, 4, 5} {
			spec.Schedule.CrashAt = 1 + total*(frac-1)/frac%total
			attempts++
			if res := Run(spec); res.Failed() {
				caught, firstFail = &spec, res
				break hunt
			}
		}
	}
	if caught == nil {
		t.Fatalf("seeded durability bug not caught in %d attempts", attempts)
	}
	t.Logf("caught after %d attempts: %v\n  %s", attempts, *caught, firstFail.Violations[0])

	// Shrink to a minimal reproducer; it must still fail.
	small, res := Shrink(*caught, firstFail)
	if !res.Failed() {
		t.Fatalf("shrink lost the failure: %v", small)
	}
	t.Logf("shrunk reproducer: %v (%d violations)", small, len(res.Violations))

	// Replay determinism: same (seed, schedule) — same media image, still
	// failing. Two fresh replays must agree with each other bit for bit.
	r1 := Run(small)
	r2 := Run(small)
	if !r1.Failed() || !r2.Failed() {
		t.Fatalf("replay of shrunk reproducer did not fail (r1=%v r2=%v)", r1.Violations, r2.Violations)
	}
	if r1.MediaHash != r2.MediaHash {
		t.Fatalf("replays produced different media images: %#x vs %#x", r1.MediaHash, r2.MediaHash)
	}
	if r1.CrashedAt != r2.CrashedAt {
		t.Fatalf("replays crashed at different ops: %d vs %d", r1.CrashedAt, r2.CrashedAt)
	}
}

// TestUnbrokenMirrorNotCaught is the control for the self-test: the same
// hunt against the correct engine must come up empty.
func TestUnbrokenMirrorNotCaught(t *testing.T) {
	spec := Spec{
		Structure: "list",
		Kind:      engine.MirrorDRAM,
		Faults:    pmem.FaultSpec{Torn: true, Drop: true},
		Schedule:  Schedule{Workers: 1, OpsPer: 10, Keys: 4},
	}
	for seed := int64(1); seed <= 10; seed++ {
		spec.Seed = seed
		total := Calibrate(spec)
		for _, frac := range []int64{2, 3, 4} {
			spec.Schedule.CrashAt = 1 + total*(frac-1)/frac%total
			if res := Run(spec); res.Failed() {
				t.Fatalf("correct engine flagged: %v: %v", spec, res.Violations)
			}
		}
	}
}

// TestShrinkKeepsUnreproducibleFailure pins what Shrink does with a failure
// that does not recur: a multi-worker run is not replayable, so the spec a
// fuzzer hands over may pass when Shrink runs it again. The caller reports
// Violations[0] of whatever comes back, so Shrink must return the failing
// result it was given, with the spec unshrunk — never a passing one.
func TestShrinkKeepsUnreproducibleFailure(t *testing.T) {
	runs := 0
	spec := Spec{
		Structure: "list",
		Kind:      engine.MirrorDRAM,
		Faults:    pmem.FaultSpec{Torn: true, Drop: true},
		Schedule:  Schedule{Workers: 1, OpsPer: 10, Keys: 4},
		// Only the first engine built carries the seeded bug.
		NewEngine: func(cfg engine.Config) engine.Engine {
			if runs++; runs == 1 {
				return engine.NewBroken(cfg, engine.BugDropOwnFlush)
			}
			return engine.New(cfg)
		},
	}
	total := Calibrate(spec)
	var failed *Result
hunt:
	for seed := int64(1); seed <= 30; seed++ {
		spec.Seed = seed
		for _, frac := range []int64{2, 3, 4, 5} {
			spec.Schedule.CrashAt = 1 + total*(frac-1)/frac%total
			runs = 0
			if res := Run(spec); res.Failed() {
				failed = res
				break hunt
			}
		}
	}
	if failed == nil {
		t.Fatal("the seeded bug was never caught on a first run")
	}
	if again := Run(spec); again.Failed() {
		t.Fatalf("the hook failed a second run: %v", again.Violations)
	}
	small, res := Shrink(spec, failed)
	if res != failed {
		t.Fatalf("Shrink returned %+v, want the failing result it was given", res)
	}
	if small.Schedule != spec.Schedule {
		t.Fatalf("Shrink reduced a spec it could not re-fail: %v -> %v", spec.Schedule, small.Schedule)
	}
}

// TestScheduleRoundTrip pins the reproducer codec.
func TestScheduleRoundTrip(t *testing.T) {
	s := Schedule{Workers: 3, OpsPer: 12, Keys: 7, CrashAt: 4211}
	got, err := ParseSchedule(s.String())
	if err != nil || got != s {
		t.Fatalf("round trip %v -> %v, %v", s, got, err)
	}
	if _, err := ParseSchedule("bogus"); err == nil {
		t.Fatal("bogus schedule accepted")
	}
}

// TestZurielUnderFaults puts the hand-made durable sets under the fault
// adversary via the custom crash harness: torn and dropped lines must be
// absorbed by the checksum validity scheme.
func TestZurielUnderFaults(t *testing.T) {
	mks := map[string]func() zuriel.Set{
		"LinkFree": func() zuriel.Set { return zuriel.NewLinkFree(zuriel.Config{Words: 1 << 21, Buckets: 16, Track: true}) },
		"SOFT":     func() zuriel.Set { return zuriel.NewSoft(zuriel.Config{Words: 1 << 21, Buckets: 16, Track: true}) },
	}
	for name, mk := range mks {
		mk := mk
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 3; seed++ {
				s := mk()
				fm := pmem.NewFaultModel(seed, pmem.FaultSpec{Torn: true, Evict: true, Drop: true})
				s.InjectFaults(fm)
				// A modest trigger lands the crash mid-workload; the
				// FreezeLag path would race it, so trigger directly.
				fm.CrashAfter(2000 + seed*517)
				target := crashtest.CustomTarget{
					NewWorker: func() (func(k, v uint64) bool, func(k uint64) bool, func(k uint64) bool) {
						c := s.NewCtx()
						return func(k, v uint64) bool { return s.Insert(c, k, v) },
							func(k uint64) bool { return s.Delete(c, k) },
							func(k uint64) bool { return s.Contains(c, k) }
					},
					Freeze:  s.Freeze,
					Crash:   s.Crash,
					Recover: s.Recover,
				}
				for _, v := range crashtest.RunCustom(target, crashtest.Config{
					Policy: pmem.CrashDropAll, Seed: seed * 13, Workers: 3, KeysPer: 16,
				}) {
					t.Errorf("seed %d key=%d: %s (got present=%v, want %s)", seed, v.Key, v.Context, v.Got, v.Want)
				}
			}
		})
	}
}

// TestMediaImagesPinned pins the post-crash media image of one Workers=1
// spec per structure, without and with detectable operations: a crash at
// workload end (OpsTotal, MediaHash, CrashedAt 0) and one at half of it.
// The constants were taken before the fuzzer attached through the runtime;
// a change to anything that runs before the crash — the engine, a
// structure's write path, how the fuzzer builds them — moves them.
func TestMediaImagesPinned(t *testing.T) {
	pins := []struct {
		structure string
		detect    bool
		opsTotal  int64
		endHash   uint64
		midHash   uint64
	}{
		{"bst", false, 59, 0x223a49273e092db6, 0xc30929c23af967d},
		{"bst", true, 212, 0xa217f2fc5dd277d8, 0x8060a40aa0f60992},
		{"hashtable", false, 55, 0x6698cc19b6e1defa, 0x145caeedd7fca944},
		{"hashtable", true, 181, 0x96a174f9c44de101, 0xcf3de1efa31c53cb},
		{"list", false, 10, 0xff71bc3760d4fad3, 0x57ccc0f10c32d8e4},
		{"list", true, 136, 0xa569db8ef59573e, 0xf06f5d4288d82a72},
		{"skiplist", false, 41, 0xab77a87013dc2fa2, 0x4ab7d4ed5cf07835},
		{"skiplist", true, 160, 0xfb51fa81de54078b, 0x721e7e9961e14111},
	}
	for _, p := range pins {
		spec := Spec{
			Structure: p.structure,
			Kind:      engine.MirrorDRAM,
			Faults:    pmem.FaultSpec{Torn: true, Evict: true, Drop: true},
			Seed:      1,
			Detect:    p.detect,
			Schedule:  Schedule{Workers: 1, OpsPer: 8, Keys: 6},
		}
		if p.detect {
			spec.Seed = 11
		}
		end := Run(spec)
		if end.OpsTotal != p.opsTotal || end.CrashedAt != 0 || end.MediaHash != p.endHash || end.Failed() {
			t.Errorf("%v: ops %d, crashed at %d, hash %#x, violations %q; want ops %d, crashed at 0, hash %#x, none",
				spec, end.OpsTotal, end.CrashedAt, end.MediaHash, end.Violations, p.opsTotal, p.endHash)
		}
		spec.Schedule.CrashAt = p.opsTotal / 2
		mid := Run(spec)
		if mid.OpsTotal != spec.Schedule.CrashAt || mid.CrashedAt != spec.Schedule.CrashAt || mid.MediaHash != p.midHash || mid.Failed() {
			t.Errorf("%v: ops %d, crashed at %d, hash %#x, violations %q; want ops and crash at %d, hash %#x, none",
				spec, mid.OpsTotal, mid.CrashedAt, mid.MediaHash, mid.Violations, spec.Schedule.CrashAt, p.midHash)
		}
	}
}
