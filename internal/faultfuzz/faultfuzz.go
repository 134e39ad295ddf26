// Package faultfuzz is the seeded crash fuzzer over the adversarial
// persistence fault model of internal/pmem: it runs randomized concurrent
// workloads against the durable engines, fires a seeded crash trigger at an
// arbitrary device operation mid-flight, lets the fault adversary decide the
// fate of every dirty cache line (persist / drop / tear), recovers, and
// cross-checks the survivor:
//
//   - structural fsck (internal/verify) plus the Lemma 5.3–5.5 replica
//     invariants on every reachable object (Mirror engines);
//   - durable linearizability of the recorded operation history against the
//     recovered state (internal/linearize.CheckDurable);
//   - torn-value detection (every stored value must equal its key);
//   - an operational probe (the structure still works).
//
// Every run is parameterized by (seed, schedule); a single-threaded
// schedule replays to the bit-identical post-crash media image, which is
// what Result.MediaHash fingerprints. Shrink reduces a failing spec to a
// minimal reproducer.
package faultfuzz

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"mirror/internal/engine"
	"mirror/internal/linearize"
	"mirror/internal/pmem"
	"mirror/internal/rt"
	"mirror/internal/structures"
	"mirror/internal/verify"
)

// Schedule is the shape of one fuzz workload. It is one half of the
// reproducer pair: (seed, schedule) fully determines a Workers=1 run.
type Schedule struct {
	Workers int   // concurrent worker goroutines
	OpsPer  int   // recorded operations per worker
	Keys    int   // keyspace [1, Keys]
	CrashAt int64 // device-op index where the crash fires; 0 = at workload end
}

// String renders the canonical re-runnable form, e.g. "w2o8k6c137".
func (s Schedule) String() string {
	return fmt.Sprintf("w%do%dk%dc%d", s.Workers, s.OpsPer, s.Keys, s.CrashAt)
}

// ParseSchedule parses the String form.
func ParseSchedule(str string) (Schedule, error) {
	var s Schedule
	if _, err := fmt.Sscanf(str, "w%do%dk%dc%d", &s.Workers, &s.OpsPer, &s.Keys, &s.CrashAt); err != nil {
		return s, fmt.Errorf("faultfuzz: bad schedule %q (want wWoOkKcC): %v", str, err)
	}
	return s, nil
}

func (s *Schedule) setDefaults() {
	if s.Workers <= 0 {
		s.Workers = 2
	}
	if s.OpsPer <= 0 {
		s.OpsPer = 8
	}
	if s.Keys <= 0 {
		s.Keys = 6
	}
	// The durable-linearizability search is bounded to 64 ops total.
	for s.Workers*s.OpsPer > 48 {
		s.OpsPer--
	}
}

// Spec is one complete fuzz-run configuration.
type Spec struct {
	Structure string      // list | hashtable | bst | skiplist
	Kind      engine.Kind // a durable engine kind
	Faults    pmem.FaultSpec
	Seed      int64
	Schedule  Schedule
	Words     int
	// Detect enables detectable operations: the engine reserves one
	// descriptor ring per worker (Config.Clients = Schedule.Workers, ring
	// size the engine default), every workload operation runs inside a
	// detectability bracket, and after recovery the Detect verdicts are
	// cross-checked against durable linearizability — every acknowledged
	// seq still inside the ring window must read Committed with its
	// recorded result, and the crash-cut operation is resolved by its
	// verdict and replayed exactly-once. A Detect verdict that disagrees
	// with linearize.CheckDurable is a violation like any other:
	// shrinkable and replayable.
	Detect bool
	// NewEngine builds the runtime's engine (rt.OpenWith): a test hook for
	// deliberately broken engines, or recovery at another worker count
	// than the runtime's. nil means engine.New.
	NewEngine func(engine.Config) engine.Engine
}

// String renders the reproducer line a failing run prints.
func (s Spec) String() string {
	str := fmt.Sprintf("-structure=%s -engine=%s -faults=%s -seed=%d -schedule=%s",
		s.Structure, s.Kind, s.Faults, s.Seed, s.Schedule)
	if s.Detect {
		str += " -detect"
	}
	return str
}

// Result is the outcome of one run.
type Result struct {
	Violations []string
	// MediaHash fingerprints the persistent media image between crash and
	// recovery; Workers=1 replays of the same spec must reproduce it.
	MediaHash uint64
	// OpsTotal is the model's device-op clock after the run; fuzzers
	// place CrashAt by sampling [1, OpsTotal] of a c0 dry run.
	OpsTotal int64
	// CrashedAt is the op index where the trigger fired (0 = it did not;
	// the crash was taken at workload end instead).
	CrashedAt int64
}

// Failed reports whether the run found any violation.
func (r *Result) Failed() bool { return len(r.Violations) > 0 }

func (r *Result) addf(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// target is where a structure lives in the fuzzed runtime and the fsck
// its survivor must pass.
type target struct {
	rootField int
	fsck      func(e engine.Engine, c *engine.Ctx, rootField int) *verify.Report
}

var targets = map[string]target{
	"list":      {0, verify.List},
	"hashtable": {0, verify.HashTable},
	"bst":       {2, verify.BST},
	"skiplist":  {3, verify.SkipList},
}

// Structures lists the fuzzable structure names, sorted.
func Structures() []string {
	var names []string
	for name := range targets {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// guard runs f, converting an ErrFrozen panic (the simulated power cut)
// into a false return. Any other panic propagates.
func guard(f func()) (completed bool) {
	defer func() {
		if r := recover(); r != nil {
			if r != pmem.ErrFrozen {
				panic(r)
			}
		}
	}()
	f()
	return true
}

// detectableSet wraps a structures.Set so every operation runs inside a
// detectable-operation bracket on one client descriptor slot. The adapter
// sits *inside* the history Recorder, so the invoke-record precedes
// DetectBeginDeferred and the response-record follows the operation's own
// DetectDrain: an operation that completed in the history has a durably
// published verdict. The fields are
// single-writer (one worker per adapter) and are read only after the
// post-crash quiesce.
type detectableSet struct {
	structures.Set
	e      engine.Detector
	client int
	// seq is the last announced sequence number; completed is the last one
	// whose drain returned. seq == completed+1 exactly when the crash
	// cut an operation mid-flight (the announce happens before anything
	// that can freeze).
	seq, completed uint64
	lastKind       uint64 // kind/key/val of the last *started* op
	lastKey        uint64
	lastVal        uint64
	// results journals every completed op's boolean result by seq, the
	// ground truth the ring-window cross-check compares verdicts against.
	results map[uint64]bool
}

func (d *detectableSet) run(c *engine.Ctx, kind, key, val uint64, f func() bool) bool {
	d.seq++
	d.lastKind, d.lastKey, d.lastVal = kind, key, val
	d.e.DetectBeginDeferred(c, d.client, d.seq, kind, key, val)
	res := f()
	d.e.DetectEndDeferred(c, res, 0)
	d.e.DetectDrain(c)
	d.completed = d.seq
	d.results[d.seq] = res
	return res
}

func (d *detectableSet) Insert(c *engine.Ctx, key, val uint64) bool {
	return d.run(c, engine.DetectInsert, key, val, func() bool { return d.Set.Insert(c, key, val) })
}

func (d *detectableSet) Delete(c *engine.Ctx, key uint64) bool {
	return d.run(c, engine.DetectDelete, key, 0, func() bool { return d.Set.Delete(c, key) })
}

func (d *detectableSet) Contains(c *engine.Ctx, key uint64) bool {
	return d.run(c, engine.DetectContains, key, 0, func() bool { return d.Set.Contains(c, key) })
}

// cut reports whether the crash cut an operation on this client mid-flight.
func (d *detectableSet) cut() bool { return d.seq > d.completed }

// opKind maps a descriptor kind back to the history's operation kind.
func opKind(kind uint64) linearize.OpKind {
	switch kind {
	case engine.DetectInsert:
		return linearize.OpInsert
	case engine.DetectDelete:
		return linearize.OpDelete
	default:
		return linearize.OpContains
	}
}

// Run executes one fuzz run and returns its result.
func Run(spec Spec) *Result {
	spec.Schedule.setDefaults()
	if !spec.Kind.Durable() {
		panic("faultfuzz: engine kind is not durable")
	}
	tgt, ok := targets[spec.Structure]
	if !ok {
		panic(fmt.Sprintf("faultfuzz: unknown structure %q", spec.Structure))
	}
	words := spec.Words
	if words == 0 {
		words = 1 << 17
	}
	res := &Result{}

	clients := 0
	if spec.Detect {
		clients = spec.Schedule.Workers
	}
	cfg := engine.Config{Kind: spec.Kind, Words: words, RootFields: 8, Track: true, Clients: clients}
	cfg.SetDefaults()
	r, err := rt.OpenWith(cfg, spec.NewEngine)
	if err != nil {
		panic(err)
	}
	e := r.Engine()
	fm := pmem.NewFaultModel(spec.Seed, spec.Faults)
	devs := engine.PersistentDevices(e)
	for _, d := range devs {
		d.InjectFaults(fm)
	}
	if spec.Schedule.CrashAt > 0 {
		fm.CrashAfter(spec.Schedule.CrashAt)
	}

	var set structures.Set
	attach := func(c *engine.Ctx) {
		h, _ := r.At(c, spec.Structure, tgt.rootField, 16) // a fresh runtime refuses no field
		set = h.(structures.Set)
	}
	// Construction is inside the crash window: the trigger may cut it.
	built := guard(func() { attach(r.NewCtx()) })

	hist := linearize.NewHistory()
	dets := make([]*detectableSet, spec.Schedule.Workers)
	if built {
		var wg sync.WaitGroup
		for w := 0; w < spec.Schedule.Workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				guard(func() {
					c := e.NewCtx()
					rset := set
					if spec.Detect {
						dets[w] = &detectableSet{Set: set, e: e, client: w, results: map[uint64]bool{}}
						rset = dets[w]
					}
					rec := hist.Record(rset, w)
					rng := rand.New(rand.NewSource(spec.Seed*1000 + int64(w)))
					for i := 0; i < spec.Schedule.OpsPer; i++ {
						key := uint64(1 + rng.Intn(spec.Schedule.Keys))
						switch rng.Intn(4) {
						case 0, 1: // insert-heavy so state accumulates
							rec.Insert(c, key, key)
						case 2:
							rec.Delete(c, key)
						default:
							rec.Contains(c, key)
						}
					}
				})
			}(w)
		}
		wg.Wait()
	}

	// Take the crash: quiesce, then let the fault adversary decide every
	// dirty line's fate (the policy argument is superseded by the model).
	e.Freeze()
	e.Crash(pmem.CrashDropAll, nil)
	res.CrashedAt = fm.CrashedAt()
	res.OpsTotal = fm.Ops()
	// The crash has been taken (or its moment passed un-hit): disarm the
	// trigger so recovery and verification run under eviction stress only.
	fm.CrashAfter(0)
	for _, d := range devs {
		res.MediaHash = res.MediaHash*fnvPrime ^ d.MediaHash()
	}

	// The runtime's recovery — trace, rebuild, repair — and the
	// re-attach must neither panic nor leave a broken structure behind.
	var c *engine.Ctx
	if !guard(func() { r.Recover(); c = r.NewCtx(); attach(c) }) {
		res.addf("recovery crashed (froze) — recovery must not touch the crash trigger")
		return res
	}

	// Structural fsck, then the Lemma 5.3–5.5 replica invariants on every
	// reachable object, walked by the tracer the runtime recovered with.
	check := func(prefix string) {
		for _, p := range tgt.fsck(e, c, tgt.rootField).Problems {
			res.addf("%sfsck: %s", prefix, p)
		}
		set.Tracer()(
			func(ref engine.Ref, field int) uint64 { return e.TraversalLoad(c, ref, field) },
			func(ref engine.Ref, fields, _ int) {
				if msg := e.CheckInvariants(ref, fields); msg != "" {
					res.addf("%sreplica invariant: %s", prefix, msg)
				}
			},
			func(engine.Ref, int, uint64) {})
	}
	check("")

	// Detectability: every verdict must agree with the recorded history,
	// and the crash-cut operation is resolved by its verdict *before* the
	// durable-linearizability check — a Committed verdict obliges the cut
	// op to take effect with the recorded result, a NotCommitted verdict
	// obliges it to vanish, and only Unknown leaves both fates open.
	if spec.Detect {
		ring := uint64(cfg.DetectRing)
		for w, d := range dets {
			if d == nil {
				continue
			}
			// Detect is authoritative for every seq still inside the
			// client's ring window. Each completed op's verdict line was
			// fenced before its response was released, and the only entry a
			// crash-cut operation can be tearing mid-overwrite is a whole
			// lap below the window — so every acknowledged seq within the
			// last ring window must read Committed with its recorded result
			// verbatim. Seqs the ring has lapped delivered their responses
			// long ago and their superseded evidence may be gone; they are
			// not probed.
			lo := uint64(1)
			if d.seq > ring {
				lo = d.seq - ring + 1
			}
			for s := lo; s <= d.completed; s++ {
				v := e.Detect(w, s)
				if v.Verdict != engine.Committed {
					res.addf("detect: client %d acknowledged seq %d inside the ring window reads %v, want Committed", w, s, v.Verdict)
				} else if !v.KnownResult {
					res.addf("detect: client %d acknowledged seq %d lost its recorded result", w, s)
				} else if v.Result != d.results[s] {
					res.addf("detect: client %d seq %d result %v disagrees with the recorded %v", w, s, v.Result, d.results[s])
				}
			}
			if d.cut() {
				v := e.Detect(w, d.seq)
				switch v.Verdict {
				case engine.Committed:
					if !v.KnownResult {
						res.addf("detect: client %d cut seq %d reads Committed without a result (nothing supersedes it)", w, d.seq)
					} else if !hist.CompletePending(w, v.Result) {
						res.addf("detect: client %d cut seq %d is Committed but the history has no pending op", w, d.seq)
					}
				case engine.NotCommitted:
					if !hist.DropPending(w) {
						res.addf("detect: client %d cut seq %d is NotCommitted but the history has no pending op", w, d.seq)
					}
				default:
					// Unknown: keep the pending op; CheckDurable lets it
					// take effect or vanish, both of which remain possible.
				}
			}
		}
	}

	// Observed final state + torn-value check (every value equals its key).
	scan := func() map[uint64]bool {
		final := make(map[uint64]bool)
		for key := uint64(1); key <= uint64(spec.Schedule.Keys); key++ {
			if set.Contains(c, key) {
				final[key] = true
				if v, ok := set.Get(c, key); !ok || v != key {
					res.addf("torn value: key %d has value %d after recovery", key, v)
				}
			}
		}
		return final
	}
	final := scan()
	// Durable linearizability of the recorded history against that state.
	if err := linearize.CheckDurable(hist, nil, final); err != nil {
		res.addf("%v (completed=%d pending=%d state=%v)", err, len(hist.Ops), len(hist.Pending), final)
	}

	// Exactly-once replay of each cut operation: ExactlyOnce re-executes it
	// iff its verdict says it did not commit (Unknown replays too — the set
	// operations are idempotent, so an at-least-once Unknown replay stays
	// linearizable). Each replayed call joins the history as a fresh
	// completed op and the whole cross-check repeats on the new state: a
	// duplicated or lost effect shows up as a non-linearizable history or a
	// broken structure.
	if spec.Detect {
		replayed := false
		for w, d := range dets {
			if d == nil || !d.cut() {
				continue
			}
			d := d
			op := engine.DetectOp{
				Client: w, Seq: d.seq,
				Kind: d.lastKind, Key: d.lastKey, Val: d.lastVal,
				Run: func(c *engine.Ctx) bool {
					switch d.lastKind {
					case engine.DetectInsert:
						return set.Insert(c, d.lastKey, d.lastVal)
					case engine.DetectDelete:
						return set.Delete(c, d.lastKey)
					default:
						return set.Contains(c, d.lastKey)
					}
				},
			}
			out := engine.ExactlyOnce(e, c, op, true)
			if out.Ran {
				replayed = true
				hist.AppendCompleted(opKind(d.lastKind), d.lastKey, out.Result, w)
			} else if out.Verdict != engine.Committed {
				res.addf("detect: exactly-once replay of client %d seq %d neither ran nor found it Committed (%v)", w, d.seq, out.Verdict)
			}
		}
		if replayed {
			check("post-replay ")
			final = scan()
			if err := linearize.CheckDurable(hist, nil, final); err != nil {
				res.addf("post-replay %v (completed=%d pending=%d state=%v)", err, len(hist.Ops), len(hist.Pending), final)
			}
		}
	}
	// Operational probe.
	probe := uint64(spec.Schedule.Keys + 100)
	if !set.Insert(c, probe, 1) || !set.Contains(c, probe) || !set.Delete(c, probe) {
		res.addf("post-recovery operations failed on probe key %d", probe)
	}
	return res
}

const fnvPrime = 1099511628211

// Calibrate measures the device-op clock of a full (crash-free) run of the
// spec so a fuzzer can sample CrashAt uniformly from [1, OpsTotal].
func Calibrate(spec Spec) int64 {
	spec.Schedule.CrashAt = 0
	return Run(spec).OpsTotal
}

// Shrink greedily reduces a spec whose run gave the failing result failed,
// while it keeps failing: fewer workers first (a Workers=1 reproducer is
// exactly replayable), then fewer ops, fewer keys, and earlier crash points.
// It returns the minimal spec and its failing result. A multi-worker run is
// not replayable, so the spec may pass when run again; there is then nothing
// to shrink against, and the spec comes back unchanged with failed itself.
func Shrink(spec Spec, failed *Result) (Spec, *Result) {
	spec.Schedule.setDefaults()
	best := Run(spec)
	if !best.Failed() {
		return spec, failed
	}
	for changed := true; changed; {
		changed = false
		for _, cand := range reductions(spec) {
			if r := Run(cand); r.Failed() {
				spec, best = cand, r
				changed = true
				break
			}
		}
	}
	return spec, best
}

// reductions proposes strictly smaller candidate specs.
func reductions(s Spec) []Spec {
	var out []Spec
	add := func(mutate func(*Schedule)) {
		c := s
		mutate(&c.Schedule)
		out = append(out, c)
	}
	if s.Schedule.Workers > 1 {
		add(func(sc *Schedule) { sc.Workers = 1 })
	}
	if s.Schedule.OpsPer > 1 {
		add(func(sc *Schedule) { sc.OpsPer /= 2 })
		add(func(sc *Schedule) { sc.OpsPer-- })
	}
	if s.Schedule.Keys > 1 {
		add(func(sc *Schedule) { sc.Keys /= 2 })
		add(func(sc *Schedule) { sc.Keys-- })
	}
	if s.Schedule.CrashAt > 1 {
		add(func(sc *Schedule) { sc.CrashAt /= 2 })
		add(func(sc *Schedule) { sc.CrashAt-- })
	}
	return out
}
