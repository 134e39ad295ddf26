// Command mirrorcrash is a crash-recovery fuzzer: it runs concurrent
// workloads on a durable structure, injects simulated power failures at
// random moments under randomized eviction adversaries, recovers, and
// verifies durable linearizability against per-key single-writer histories.
//
// With -fuzz it instead drives the adversarial persistence fault model
// (internal/faultfuzz): seeded crashes at arbitrary device operations,
// torn/evicted/dropped cache lines, full-history durable-linearizability
// checking, and automatic shrinking of failures to a re-runnable
// (-seed, -schedule) reproducer. -schedule replays one such reproducer.
//
// Usage:
//
//	mirrorcrash -structure hashtable -engine Mirror -rounds 100
//	mirrorcrash -structure all -engine all -rounds 10
//	mirrorcrash -fuzz 50 -structure all -engine all -faults torn,evict,drop
//	mirrorcrash -fuzz 50 -structure all -engine Mirror -detect
//	mirrorcrash -structure list -engine Mirror -faults torn,drop -seed 7 -schedule w1o5k1c13
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sort"
	"time"

	"mirror/internal/crashtest"
	"mirror/internal/engine"
	"mirror/internal/faultfuzz"
	"mirror/internal/pmem"
)

var engines = map[string]engine.Kind{
	"Mirror":      engine.MirrorDRAM,
	"MirrorNVMM":  engine.MirrorNVMM,
	"Izraelevitz": engine.Izraelevitz,
	"NVTraverse":  engine.NVTraverse,
}

func main() {
	var (
		structure = flag.String("structure", "hashtable", "list|hashtable|bst|skiplist|all")
		engName   = flag.String("engine", "Mirror", "Mirror|MirrorNVMM|Izraelevitz|NVTraverse|all")
		rounds    = flag.Int("rounds", 20, "crash rounds per combination")
		seed      = flag.Int64("seed", 1, "base seed (fixed default for reproducible runs)")
		fuzzN     = flag.Int("fuzz", 0, "fault-fuzz iterations per combination (0 = classic crash rounds)")
		faultsStr = flag.String("faults", "torn,evict,drop", "fault behaviors for -fuzz/-schedule: torn,evict,drop or none")
		schedule  = flag.String("schedule", "", "replay one reproducer schedule (e.g. w1o5k1c13) with -seed")
		reproOut  = flag.String("repro-out", "", "write the minimized reproducer to this file on fuzz failure")
		detect    = flag.Bool("detect", false, "run -fuzz/-schedule with detectable operations: cross-check Detect verdicts against the linearizability checker and replay cut ops through ExactlyOnce")
	)
	flag.Parse()

	faults, err := pmem.ParseFaultSpec(*faultsStr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mirrorcrash: %v\n", err)
		os.Exit(2)
	}
	if *schedule != "" {
		os.Exit(replay(*structure, *engName, faults, *seed, *schedule, *detect))
	}

	// Sorted names: a fixed -seed gives every combination the same seeds,
	// in the same order, on every run.
	var engNames []string
	for n := range engines {
		engNames = append(engNames, n)
	}
	sort.Strings(engNames)
	structNames := pick("structure", faultfuzz.Structures(), *structure)
	engNames = pick("engine", engNames, *engName)

	if *fuzzN > 0 {
		os.Exit(fuzz(structNames, engNames, faults, *seed, *fuzzN, *reproOut, *detect))
	}
	if *detect {
		fmt.Fprintln(os.Stderr, "mirrorcrash: -detect requires -fuzz or -schedule")
		os.Exit(2)
	}

	policies := []pmem.CrashPolicy{pmem.CrashDropAll, pmem.CrashKeepAll, pmem.CrashRandom}
	totalViolations := 0
	rng := rand.New(rand.NewSource(*seed))
	for _, sn := range structNames {
		for _, en := range engNames {
			start := time.Now()
			violations := 0
			for r := 0; r < *rounds; r++ {
				vs := crashtest.Run(engines[en], sn, crashtest.Config{
					Policy:    policies[r%len(policies)],
					FreezeLag: time.Duration(rng.Intn(4000)) * time.Microsecond,
					Seed:      rng.Int63(),
				})
				for _, v := range vs {
					fmt.Printf("VIOLATION %s/%s round %d: key=%d %s (got present=%v, want %s)\n",
						sn, en, r, v.Key, v.Context, v.Got, v.Want)
					violations++
				}
			}
			fmt.Printf("%-10s %-12s %3d rounds, %d violations, %v\n",
				sn, en, *rounds, violations, time.Since(start).Round(time.Millisecond))
			totalViolations += violations
		}
	}
	if totalViolations > 0 {
		fmt.Printf("FAILED: %d durable-linearizability violations\n", totalViolations)
		os.Exit(1)
	}
	fmt.Println("OK: durable linearizability held in every round")
}

// pick returns names for "all", else the one name asked for; it exits on
// a name not in names.
func pick(what string, names []string, name string) []string {
	if name == "all" {
		return names
	}
	if !slices.Contains(names, name) {
		fmt.Fprintf(os.Stderr, "mirrorcrash: unknown %s %q\n", what, name)
		os.Exit(2)
	}
	return []string{name}
}

// crashAtFor derives a deterministic crash placement in [1, total] from a
// run seed.
func crashAtFor(seed, total int64) int64 {
	if total <= 0 {
		return 0
	}
	return int64(uint64(seed)*0x9E3779B97F4A7C15%uint64(total)) + 1
}

// fuzz drives the fault-model fuzzer: per combination, fuzzN seeded runs,
// each with a crash placed mid-flight from a dry run's op count. The first
// failure is shrunk, printed as a re-runnable reproducer, optionally
// written to reproOut, and fails the process.
func fuzz(structNames, engNames []string, faults pmem.FaultSpec, baseSeed int64, fuzzN int, reproOut string, detect bool) int {
	mode := ""
	if detect {
		mode = ", detectable operations"
	}
	fmt.Printf("fault-fuzz: faults=%s base seed %d, %d runs per combination%s\n", faults, baseSeed, fuzzN, mode)
	for _, sn := range structNames {
		for _, en := range engNames {
			start := time.Now()
			crashed := 0
			for i := 0; i < fuzzN; i++ {
				spec := faultfuzz.Spec{
					Structure: sn,
					Kind:      engines[en],
					Faults:    faults,
					Seed:      baseSeed + int64(i),
					Schedule:  faultfuzz.Schedule{Workers: 2, OpsPer: 8, Keys: 6},
					Detect:    detect,
				}
				spec.Schedule.CrashAt = crashAtFor(spec.Seed, faultfuzz.Calibrate(spec))
				res := faultfuzz.Run(spec)
				if res.CrashedAt != 0 {
					crashed++
				}
				if !res.Failed() {
					continue
				}
				small, minRes := faultfuzz.Shrink(spec, res)
				repro := fmt.Sprintf("mirrorcrash %v", small)
				fmt.Printf("FAILED %s/%s run %d: %s\n", sn, en, i, minRes.Violations[0])
				if minRes == res {
					fmt.Println("the failure did not recur when the spec ran again (a multi-worker run is not replayable): unshrunk spec, original violations")
				}
				fmt.Printf("reproduce with: %s\n", repro)
				if reproOut != "" {
					body := repro + "\n"
					for _, v := range minRes.Violations {
						body += "# " + v + "\n"
					}
					body += fmt.Sprintf("# media hash %#x, crashed at op %d\n", minRes.MediaHash, minRes.CrashedAt)
					if err := os.WriteFile(reproOut, []byte(body), 0o644); err != nil {
						fmt.Fprintf(os.Stderr, "mirrorcrash: writing %s: %v\n", reproOut, err)
					}
				}
				return 1
			}
			fmt.Printf("%-10s %-12s %3d fuzz runs (%d mid-flight crashes), clean, %v\n",
				sn, en, fuzzN, crashed, time.Since(start).Round(time.Millisecond))
		}
	}
	fmt.Println("OK: fault fuzzing found no violations")
	return 0
}

// replay re-runs one (seed, schedule) reproducer and reports the media
// fingerprint, so a failure can be confirmed bit for bit.
func replay(structure, engName string, faults pmem.FaultSpec, seed int64, scheduleStr string, detect bool) int {
	kind, ok := engines[engName]
	if !ok {
		fmt.Fprintf(os.Stderr, "mirrorcrash: -schedule needs a single engine, got %q\n", engName)
		return 2
	}
	sched, err := faultfuzz.ParseSchedule(scheduleStr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mirrorcrash: %v\n", err)
		return 2
	}
	spec := faultfuzz.Spec{Structure: structure, Kind: kind, Faults: faults, Seed: seed, Schedule: sched, Detect: detect}
	res := faultfuzz.Run(spec)
	fmt.Printf("replay %v\n  crashed at op %d of %d, media hash %#x\n",
		spec, res.CrashedAt, res.OpsTotal, res.MediaHash)
	if res.Failed() {
		for _, v := range res.Violations {
			fmt.Printf("VIOLATION: %s\n", v)
		}
		return 1
	}
	fmt.Println("OK: no violations")
	return 0
}
