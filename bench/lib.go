package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"mirror/internal/engine"
	"mirror/internal/harness"
	"mirror/internal/pmem"
	"mirror/internal/structures/hashtable"
	"mirror/internal/workload"
)

// lib-hash-a: no wire and no server. The hash table under engine.MirrorDRAM
// through the public constructors, the paper's own evaluation shape. Track
// is on (anonymous media), so the persistent replica really is written at
// every fence and a simulated power failure can be recovered from.
//
// One goroutine, and a key range that keeps both replicas and the media image
// (three arrays of 2^17 words, 3 MB in all, a tenth of it touched) inside one
// core's L2:
// the timed pass measures the instruction path of a Mirror operation.
// Anything that leaves the core (a range past L2, or a second goroutine
// sharing lines) moved by a quarter and more from run to run on this host
// (README, "What was tried and dropped"); the second goroutine is measured
// in the traced pass as engine.scaling_efficiency, without a bound.

const (
	libKeyRange = 1 << 11 // half prefilled
	// Per replica. palloc hands a context 32 objects of a size class at a
	// time, and 32 bucket arrays are 2^16 words: this is the smallest power of
	// two that holds the table, with 13 chunks of slack for one goroutine.
	libWords = 1 << 17
	// Two goroutines need more: one descheduled for 15 ms pins the epoch while
	// the other retires 7000 nodes, which is all of that slack.
	libScaleWords   = 1 << 20
	libBuckets      = libKeyRange / 2
	libThreads      = 1
	libScaleThreads = 2
	libSampleEvery  = 128 // workload.Spec.SampleLatency
	libTraceEvery   = 64
	libTracedOps    = 1000000
	libWindowsPer   = 4 // measured windows per table
	libGroup        = 8 // sampled operations per recorded latency (their mean)
	libRecoversPer  = 8 // simulated power failures per table
)

func (e *env) libSpec(threads int, d time.Duration, seed int64) workload.Spec {
	return workload.Spec{
		KeyRange: libKeyRange, Mix: workload.YCSBA, Threads: threads, Duration: d,
		Seed: seed, SampleLatency: libSampleEvery, Dist: workload.DistUniform,
	}
}

// libWorker is one goroutine's handle: it books what it attempted, which
// mutations succeeded, and any value that is not its key.
type libWorker struct {
	_   [128]byte // the counters below are written on every operation:
	set *hashtable.Table
	c   *engine.Ctx
	tally
	_ [128]byte // keep two workers off each other's cache lines
}

func (w *libWorker) Insert(key, val uint64) bool {
	w.attempted++
	ok := w.set.Insert(w.c, key, val)
	if ok {
		w.inserted++
	}
	return ok
}

func (w *libWorker) Delete(key uint64) bool {
	w.attempted++
	ok := w.set.Delete(w.c, key)
	if ok {
		w.deleted++
	}
	return ok
}

func (w *libWorker) Contains(key uint64) bool {
	w.attempted++
	v, ok := w.set.Get(w.c, key)
	if ok && v != key {
		w.fail("Get %d returned value %d", key, v)
	}
	return ok
}

// libInstance is one engine + table + the workers that drive it.
type libInstance struct {
	e       engine.Engine   // the raw engine
	wrap    *countingEngine // what the table sees instead, when its calls are counted
	table   *hashtable.Table
	workers []*libWorker
	next    atomic.Int32
	prefill int
}

// newLib builds and prefills an instance; with wrapped the table is built on
// a counting wrapper around the engine.
func (e *env) newLib(wrapped bool, threads, words int) *libInstance {
	raw := engine.New(engine.Config{Kind: engine.MirrorDRAM, Words: words, Track: true})
	li := &libInstance{e: raw}
	seen := raw
	if wrapped {
		li.wrap = &countingEngine{Engine: raw}
		seen = li.wrap
	}
	li.table = hashtable.New(seen, raw.NewCtx(), libBuckets)
	for i := 0; i < threads; i++ {
		li.workers = append(li.workers, &libWorker{set: li.table, c: raw.NewCtx()})
	}
	first := li.workers[0]
	li.prefill = prefillKeys(libKeyRange, e.seed, func(key uint64) {
		if !first.Insert(key, key) {
			first.fail("prefill Insert %d found the key present", key)
		}
	})
	first.inserted = 0 // the count check adds the prefill itself
	return li
}

// target hands the instance's workers to workload.Run, one per thread.
func (li *libInstance) target() workload.Target {
	return workload.Target{
		Name: "bench-lib-hash",
		NewWorker: func() workload.Worker {
			return li.workers[int(li.next.Add(1)-1)%len(li.workers)]
		},
	}
}

func (li *libInstance) tally() tally {
	var t tally
	for _, w := range li.workers {
		t.add(w.tally)
	}
	return t
}

// recoverLib takes a simulated power failure (every unfenced write lost),
// recovers, re-adopts the table and times until the first Get of a present
// key. It returns the re-adopted table's key count.
func (li *libInstance) recoverLib(t *tally) (recoverMS, getMS float64, keys int) {
	c := li.e.NewCtx()
	var key uint64
	for k := uint64(1); key == 0; k++ {
		if _, ok := li.table.Get(c, k); ok {
			key = k
		}
	}
	li.e.Freeze()
	li.e.Crash(pmem.CrashDropAll, nil)
	t0 := time.Now()
	li.e.Recover(hashtable.TracerAt(li.e, 0))
	recoverMS = ms(time.Since(t0))
	c = li.e.NewCtx()
	table := hashtable.New(li.e, c, libBuckets)
	t.attempted++
	if v, ok := table.Get(c, key); !ok || v != key {
		t.fail("recovery: Get %d = (%d, %v)", key, v, ok)
	}
	getMS = ms(time.Since(t0))
	li.table = table
	return recoverMS, getMS, table.Len(c)
}

func (e *env) libE2E(em *emitter) (*outcome, error) {
	out := &outcome{}
	// Every few windows run on a table of their own. Where an instance's
	// arrays land in memory decides its speed for as long as it lives (six
	// instances of one process read 3.1 3.2 3.2 3.0 3.6 3.1 Mops/s, each steady
	// over four windows), so one instance per run made that luck the run's
	// result. Building one takes a millisecond, and each build is a sample of
	// setup_s.
	tables := max(e.windows/libWindowsPer, 1)
	var (
		winHist                                []harness.Hist
		setups, kops, space, restarts          []float64
		mutations, fences, flushes             uint64
		stored, acknowledged, recovered, round int64
	)
	for i := 0; i < tables; i++ {
		runtime.GC() // as setupServed: the previous instance's arrays are garbage, reuse them
		t0 := time.Now()
		li := e.newLib(false, libThreads, libWords)
		setups = append(setups, time.Since(t0).Seconds())
		target := li.target()
		run := func(d time.Duration) workload.Result {
			round++
			return workload.Run(target, e.libSpec(libThreads, d, e.seed<<16+round))
		}
		run(e.window) // warm-up
		fl0, fe0 := li.e.Counters()
		for j := 0; j < libWindowsPer; j++ {
			res := run(e.window)
			kops = append(kops, float64(res.Ops)/res.Elapsed.Seconds()/1e3)
			mutations += res.Inserts + res.Deletes
			// One operation takes a read's time or an update's, and the mix
			// puts the median of single operations on the step between the
			// two, where it reads either. A caller sees runs of operations:
			// the samples are taken libGroup at a time and their mean recorded.
			var h harness.Hist
			for g := 0; g+libGroup <= len(res.Latencies); g += libGroup {
				var sum time.Duration
				for _, d := range res.Latencies[g : g+libGroup] {
					sum += d
				}
				h.Record(uint64(sum / libGroup))
			}
			winHist = append(winHist, h)
		}
		fl1, fe1 := li.e.Counters()
		flushes += fl1 - fl0
		fences += fe1 - fe0

		t := li.tally()
		out.tally.add(t)
		keys := li.table.Len(li.e.NewCtx())
		stored += int64(keys)
		acknowledged += int64(li.prefill) + t.inserted - t.deleted
		words, replicas := li.e.Footprint()
		space = append(space, float64(words)*float64(replicas)*8/float64(keys))

		// A recovery of this table takes a tenth of a millisecond, most of
		// it copying the image, so a run takes hundreds of them.
		after := keys
		for j := 0; j < libRecoversPer; j++ {
			runtime.GC() // keep a collection out of the timed tenth of a millisecond
			var getMS float64
			_, getMS, after = li.recoverLib(&out.tally)
			restarts = append(restarts, getMS)
		}
		recovered += int64(after)
	}
	em.emit("setup_s", median(setups))
	if err := emitTimed(e, em, kops, winHist); err != nil {
		return nil, err
	}
	em.emit("fences_per_mutation", float64(fences)/float64(mutations))
	em.emit("flushes_per_mutation", float64(flushes)/float64(mutations))
	out.check("stored keys = prefill + inserts - deletes", stored == acknowledged,
		fmt.Sprintf("stored %d, acknowledged %d, over %d tables", stored, acknowledged, tables))
	em.emit("space_bytes_per_key", median(space))
	em.emit("restart_ms", fastest(restarts))
	e.printf("  restart_ms: %d recoveries, median %.3f; the fastest reported\n", len(restarts), median(restarts))
	out.check("recovery keeps every stored key", recovered == stored, fmt.Sprintf("%d before, %d after", stored, recovered))
	return out, nil
}

// libReplay runs n generated operations on one goroutine against worker 0,
// checking every answer against a model, with sampled spans when tr is set.
func (e *env) libReplay(li *libInstance, n int, tr *tracer) (perOpNS float64, mutations int64) {
	model := make([]bool, libKeyRange+1)
	prefillKeys(libKeyRange, e.seed, func(key uint64) { model[key] = true })
	w := li.workers[0]
	g := newGenerator(e.libSpec(1, 0, e.seed), 0)
	spanName := [...]string{kGet: "structures.get", kInsert: "structures.insert", kDelete: "structures.delete"}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		sampled := tr != nil && i%libTraceEvery == 0
		var root int32
		var s0, s1 int64
		if sampled {
			s0 = tr.now()
			root = tr.open(int32(i), s0)
		}
		o := g.next()
		if sampled {
			s1 = tr.now()
		}
		var got bool
		switch o.kind {
		case kGet:
			got = w.Contains(o.key)
		case kInsert:
			got = w.Insert(o.key, o.key)
			mutations++
		case kDelete:
			got = w.Delete(o.key)
			mutations++
		}
		if sampled {
			s0 = tr.now()
			tr.child(root, spanName[o.kind], "structures", s1, s0)
			tr.close(root, s0)
		}
		present := model[o.key]
		if (o.kind == kInsert) == (got == present) { // GET and DELETE answer present; INSERT answers !present
			w.fail("%s %d = %v, model had present=%v", kindNames[o.kind], o.key, got, present)
		}
		if o.kind != kGet {
			model[o.key] = o.kind == kInsert
		}
	}
	return float64(time.Since(t0)) / float64(n), mutations
}

func (e *env) libLayers(em *emitter) (*outcome, error) {
	out := &outcome{}
	n := libTracedOps
	if e.short {
		n = 20000
	}

	// Counted + traced: one goroutine, the structure sees the wrapper.
	traced := e.newLib(true, 1, libWords)
	calls0, st0 := traced.wrap.n, traced.e.Stats()
	fl0, fe0 := traced.e.Counters()
	tr := newTracer()
	tracedNS, mutations := e.libReplay(traced, n, tr)
	fl1, fe1 := traced.e.Counters()
	emitEngineCalls(em, traced.wrap.n.sub(calls0), float64(n))
	emitEngineStats(em, statsSub(traced.e.Stats(), st0), fl1-fl0, fe1-fe0, float64(n), float64(mutations))

	plain := e.newLib(true, 1, libWords)
	plainNS, _ := e.libReplay(plain, n, nil)
	raw := e.newLib(false, 1, libWords)
	rawNS, _ := e.libReplay(raw, n, nil)
	pfl, pfe := plain.e.Counters()
	rfl, rfe := raw.e.Counters()
	out.check("wrapped structure totals = unwrapped totals", fl1 == rfl && fe1 == rfe && pfl == rfl && pfe == rfe,
		fmt.Sprintf("wrapped %d/%d, unwrapped %d/%d", fl1, fe1, rfl, rfe))
	for _, li := range []*libInstance{traced, plain, raw} {
		out.tally.add(li.tally())
	}
	em.emit("trace.overhead_share", (tracedNS-plainNS)/plainNS)
	e.printf("  per operation: traced %.0f ns, untraced %.0f ns, unwrapped %.0f ns\n", tracedNS, plainNS, rawNS)

	med, count := spanMedians(tr.spans)
	for _, sp := range []struct{ metric, span string }{
		{"structures.get_ns", "structures.get"}, {"structures.insert_ns", "structures.insert"}, {"structures.delete_ns", "structures.delete"},
	} {
		if count[sp.span] == 0 {
			em.na(sp.metric)
		} else {
			em.emit(sp.metric, med[sp.span])
		}
	}
	self, nreq := selfTimes(tr.spans)
	for _, l := range sortedKeys(self) {
		e.printf("  self time per traced operation: %-10s %8.1f ns\n", l, self[l])
	}
	path := filepath.Join(e.root, "bench", "out", "lib-hash-a.trace.json")
	if err := tr.write(path, "lib-hash-a", e.seed, libTraceEvery); err != nil {
		return nil, err
	}
	e.printf("  %d spans of %d operations written to %s\n", len(tr.spans), nreq, path)

	keys := traced.table.Len(traced.e.NewCtx())
	words, _ := traced.e.Footprint()
	em.emit("palloc.live_words_per_key", float64(words)/float64(keys))
	em.emit("palloc.limbo_len", float64(traced.workers[0].c.Cache.LimboLen()))

	// Scaling: the same table driven by one goroutine, then by two.
	sc := e.newLib(false, libScaleThreads, libScaleWords)
	one := workload.Run(sc.target(), e.libSpec(1, e.layerWindow, e.seed<<8))
	st1 := sc.e.Stats()
	two := workload.Run(sc.target(), e.libSpec(libScaleThreads, e.layerWindow, e.seed<<8+1))
	st2 := sc.e.Stats()
	out.tally.add(sc.tally())
	kops := func(r workload.Result) float64 { return float64(r.Ops) / r.Elapsed.Seconds() / 1e3 }
	em.emit("engine.scaling_efficiency", kops(two)/(libScaleThreads*kops(one)))
	e.printf("  %d goroutines %.0f kops/s, 1 goroutine %.0f kops/s\n", libScaleThreads, kops(two), kops(one))
	em.emit("loadgen.latency_p99_us", float64(two.Percentile(99))/1e3)
	em.emit("loadgen.latency_p999_us", float64(two.Percentile(99.9))/1e3)
	em.emit("patomic.helps_per_mop", float64(st2.Helps-st1.Helps)/float64(two.Ops)*1e6)
	em.emit("patomic.retries_per_mop", float64(st2.Retries-st1.Retries)/float64(two.Ops)*1e6)

	// One recovery of the traced table (the timed pass reports 300).
	before := traced.table.Len(traced.e.NewCtx())
	recoverMS, getMS, after := traced.recoverLib(&out.tally)
	out.check("recovery keeps every stored key", after == before, fmt.Sprintf("%d before, %d after", before, after))
	em.emit("recovery.recover_ms", recoverMS)
	em.emit("recovery.ready_ms", recoverMS) // a library has nothing to listen on: ready when recovered
	em.emit("recovery.first_get_ms", getMS)
	em.emit("recovery.keys", float64(after))
	em.emit("recovery.media_mb", float64(libWords)*8/(1<<20))

	e.emitMicro(em)
	em.na("loadgen.get_p50_us", "loadgen.insert_p50_us", "loadgen.delete_p50_us", "loadgen.scan_p50_us")
	em.naPrefix("wire", "server", "engine", "structures")
	return out, nil
}
