package harness

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"mirror/internal/engine"
	"mirror/internal/pmem"
	"mirror/internal/structures/hashtable"
	"mirror/internal/zuriel"
)

// RecoveryRow is one recovery measurement: one engine recovering one
// structure size at one pipeline parallelism.
type RecoveryRow struct {
	Engine      string
	Keys        int
	Parallelism int
	Elapsed     time.Duration
}

// KeysPerMS is the row's recovery throughput.
func (r RecoveryRow) KeysPerMS() float64 {
	us := float64(r.Elapsed.Microseconds())
	if us <= 0 {
		us = 1
	}
	return float64(r.Keys) / (us / 1000)
}

// RecoveryReport quantifies the §4.3 trade-off: Mirror and the direct
// transformations recover by tracing the reachable objects (and, for
// Mirror, copying them to the volatile replica), while the hand-made sets
// pay a full heap scan plus a rebuild. Run-time overhead buys recovery
// speed and vice versa. The parallelism axis sweeps the recovery pipeline's
// worker count (wall-clock gains need free cores; on a single-CPU host the
// sweep measures the pipeline's overhead instead).
type RecoveryReport struct {
	Rows []RecoveryRow
}

// Format renders the report.
func (r *RecoveryReport) Format() string {
	var b strings.Builder
	b.WriteString("recovery time by engine, structure size, and parallelism (hash table)\n")
	fmt.Fprintf(&b, "%-14s%10s%6s%14s%16s\n", "engine", "keys", "par", "recovery", "keys/ms")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-14s%10d%6d%14s%16.0f\n",
			row.Engine, row.Keys, row.Parallelism,
			row.Elapsed.Round(10*time.Microsecond), row.KeysPerMS())
	}
	return b.String()
}

// recoveryEngines is the engine axis of the recovery benchmark: the four
// durable engines, then the Link-Free scan-based baseline as a named row.
var recoveryKinds = []engine.Kind{engine.MirrorDRAM, engine.MirrorNVMM, engine.Izraelevitz, engine.NVTraverse}

// MeasureRecovery builds a hash table of each size under each durable
// engine plus the Link-Free baseline, then crashes it and times recovery at
// each pipeline parallelism. Recovery writes only volatile state, so the
// persistent image is identical across the parallelism sweep: each level
// re-crashes and recovers the very same image, making the timings directly
// comparable. Each row reads the recovered key count back and panics if it
// is not the built one, so a recovery that drops spans cannot report a
// higher keys/ms.
func MeasureRecovery(sizes, pars []int) *RecoveryReport {
	if len(pars) == 0 {
		pars = []int{1}
	}
	rep := &RecoveryReport{}
	rng := rand.New(rand.NewSource(42))
	for _, keys := range sizes {
		for _, kind := range recoveryKinds {
			e := engine.New(engine.Config{
				Kind:  kind,
				Words: deviceWords(StHash, kind, keys*2),
				Track: true,
			})
			c := e.NewCtx()
			h := hashtable.New(e, c, bucketsFor(keys))
			for k := 1; k <= keys; k++ {
				h.Insert(c, uint64(k), uint64(k))
			}
			for _, par := range pars {
				e.Crash(pmem.CrashDropAll, rng)
				start := time.Now()
				e.RecoverWith(hashtable.TracerAt(e, 0), engine.RecoverOptions{Parallelism: par})
				rep.Rows = append(rep.Rows, RecoveryRow{
					Engine: kind.String(), Keys: keys, Parallelism: par,
					Elapsed: time.Since(start),
				})
				rc := e.NewCtx()
				checkRecovered(kind.String(), keys, par, hashtable.New(e, rc, bucketsFor(keys)).Len(rc))
				rc.Close()
			}
		}
		// Link-Free: scan-based recovery. Its recovery replays inserts into
		// a fresh heap, so each parallelism level gets a freshly built set.
		for _, par := range pars {
			lf := zuriel.NewLinkFree(zuriel.Config{
				Words: keys*4*4 + bucketsFor(keys) + 1<<20, Buckets: bucketsFor(keys), Track: true,
			})
			lc := lf.NewCtx()
			for k := 1; k <= keys; k++ {
				lf.Insert(lc, uint64(k), uint64(k))
			}
			lf.Crash(pmem.CrashDropAll, rng)
			start := time.Now()
			lf.RecoverParallel(par)
			rep.Rows = append(rep.Rows, RecoveryRow{
				Engine: "LinkFree", Keys: keys, Parallelism: par,
				Elapsed: time.Since(start),
			})
			lc = lf.NewCtx()
			n := 0
			for k := 1; k <= keys; k++ {
				if lf.Contains(lc, uint64(k)) {
					n++
				}
			}
			checkRecovered("LinkFree", keys, par, n)
		}
	}
	return rep
}

// checkRecovered fails a recovery row whose recovered key count is not the
// built one.
func checkRecovered(engine string, keys, par, got int) {
	if got != keys {
		panic(fmt.Sprintf("recovery: %s at par %d recovered %d of %d keys", engine, par, got, keys))
	}
}
