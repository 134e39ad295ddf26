package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"mirror/internal/engine"
	"mirror/internal/harness"
	"mirror/internal/pmem"
	"mirror/internal/server"
	"mirror/internal/structures"
	"mirror/internal/structures/queue"
	"mirror/internal/structures/skiplist"
	"mirror/internal/wire"
)

// The counted + traced pass of a served workload.
//
// (1) Served, counted: a fresh server, one connection at depth 1, a fixed
// number of requests. Every drain batch then holds one frame, so the flush,
// fence, engine-statistics and allocation deltas repeat exactly for a seed.
//
// (2) Shadow, traced: the identical request sequence replayed through this
// file's copy of the public call sequence server.worker.exec makes, against
// an engine built with the same engine.Config. The structure is handed a
// counting wrapper around the engine, and each call into a layer is timed
// on every sampleEvery-th request. The shadow is only trusted because its
// flush and fence totals must equal pass (1)'s.

const (
	serveSampleEvery = 8

	// The counted pass is a fixed number of requests: the shadow-equals-served
	// check and "identical between two sets" are statements about this size.
	countedRequests      = 50000
	countedRequestsShort = 2000 // -short
)

// countingEngine counts the calls a structure makes into the engine. The
// engine.Detect* helpers find their side-interfaces by type assertion on the
// concrete engine, so they are always given the raw engine, never this.
type countingEngine struct {
	engine.Engine
	n engineCalls
}

type engineCalls struct {
	traversalLoads, loads, cas, casRelaxed uint64
	allocs, storeInits, publishes, retires uint64
}

func (c *countingEngine) TraversalLoad(x *engine.Ctx, r engine.Ref, f int) uint64 {
	c.n.traversalLoads++
	return c.Engine.TraversalLoad(x, r, f)
}
func (c *countingEngine) Load(x *engine.Ctx, r engine.Ref, f int) uint64 {
	c.n.loads++
	return c.Engine.Load(x, r, f)
}
func (c *countingEngine) CAS(x *engine.Ctx, r engine.Ref, f int, old, new uint64) bool {
	c.n.cas++
	return c.Engine.CAS(x, r, f, old, new)
}
func (c *countingEngine) CASRelaxed(x *engine.Ctx, r engine.Ref, f int, old, new uint64) bool {
	c.n.casRelaxed++
	return c.Engine.CASRelaxed(x, r, f, old, new)
}
func (c *countingEngine) Alloc(x *engine.Ctx, fields int) engine.Ref {
	c.n.allocs++
	return c.Engine.Alloc(x, fields)
}
func (c *countingEngine) StoreInit(x *engine.Ctx, r engine.Ref, f int, v uint64) {
	c.n.storeInits++
	c.Engine.StoreInit(x, r, f, v)
}
func (c *countingEngine) Publish(x *engine.Ctx, r engine.Ref) {
	c.n.publishes++
	c.Engine.Publish(x, r)
}
func (c *countingEngine) Retire(x *engine.Ctx, r engine.Ref, fields int) {
	c.n.retires++
	c.Engine.Retire(x, r, fields)
}

func (a engineCalls) sub(b engineCalls) engineCalls {
	return engineCalls{
		a.traversalLoads - b.traversalLoads, a.loads - b.loads, a.cas - b.cas, a.casRelaxed - b.casRelaxed,
		a.allocs - b.allocs, a.storeInits - b.storeInits, a.publishes - b.publishes, a.retires - b.retires,
	}
}

// emitEngineCalls emits the wrapper's counts per operation.
func emitEngineCalls(em *emitter, n engineCalls, ops float64) {
	em.emit("engine.traversal_loads_per_op", float64(n.traversalLoads)/ops)
	em.emit("engine.loads_per_op", float64(n.loads)/ops)
	em.emit("engine.cas_per_op", float64(n.cas)/ops)
	em.emit("engine.cas_relaxed_per_op", float64(n.casRelaxed)/ops)
	em.emit("engine.allocs_per_op", float64(n.allocs)/ops)
	em.emit("engine.store_inits_per_op", float64(n.storeInits)/ops)
	em.emit("engine.publishes_per_op", float64(n.publishes)/ops)
	em.emit("engine.retires_per_op", float64(n.retires)/ops)
}

// emitEngineStats emits the Engine.Stats() deltas of a counted pass and the
// persistence counts, exact for a seed. ops counts every operation,
// mutations only the mutating ones.
func emitEngineStats(em *emitter, d engine.Stats, flushes, fences uint64, ops, mutations float64) {
	em.emit("engine.elided_flushes_per_op", float64(d.ElidedFlushes)/ops)
	em.emit("engine.elided_fences_per_op", float64(d.ElidedFences)/ops)
	em.emit("engine.piggybacked_fences_per_op", float64(d.PiggybackedFences)/ops)
	em.emit("engine.relaxed_cas_per_op", float64(d.RelaxedCAS)/ops)
	em.emit("engine.detect_announces_per_mutation", float64(d.DetectAnnounces)/mutations)
	em.emit("engine.detect_verdicts_per_mutation", float64(d.DetectVerdicts)/mutations)
	em.emit("engine.counted_fences_per_mutation", float64(fences)/mutations)
	em.emit("engine.counted_flushes_per_mutation", float64(flushes)/mutations)
	em.emit("pmem.flushes_per_op", float64(flushes)/ops)
	em.emit("pmem.fences_per_op", float64(fences)/ops)
	// The Optane model as an exact count, never mixed into wall-clock.
	m := pmem.NVMMModel()
	em.emit("pmem.model_persist_ns_per_op", (float64(flushes)*float64(m.FlushNS)+float64(fences)*float64(m.FenceNS))/ops)
}

func statsSub(a, b engine.Stats) engine.Stats {
	return engine.Stats{
		Helps: a.Helps - b.Helps, Retries: a.Retries - b.Retries,
		ElidedFlushes: a.ElidedFlushes - b.ElidedFlushes, ElidedFences: a.ElidedFences - b.ElidedFences,
		PiggybackedFences: a.PiggybackedFences - b.PiggybackedFences, RelaxedCAS: a.RelaxedCAS - b.RelaxedCAS,
		DetectAnnounces: a.DetectAnnounces - b.DetectAnnounces, DetectVerdicts: a.DetectVerdicts - b.DetectVerdicts,
	}
}

// servedCounted is the outcome of pass (1).
type servedCounted struct {
	tally
	ops, mutations   float64
	flushes, fences  uint64 // over the counted requests
	totalFl, totalFe uint64 // from engine birth to the closed server
	stats            engine.Stats
	mallocs, bytes   uint64
	rtt              harness.Hist
	helloP50US       float64
	liveKeys         int
	liveWords        uint64
	cfg              server.Config
}

func (e *env) runServedCounted(sh serveShape) (*servedCounted, error) {
	sv, err := e.startServer(filepath.Join(e.work, sh.name+"-counted.img"))
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			sv.s.Close()
		}
	}()
	spec := sh.spec(e)
	model := make([]bool, spec.KeyRange+1)
	out := &servedCounted{cfg: sv.cfg}

	pcl, err := server.Dial(sv.addr, prefillClient)
	if err != nil {
		return nil, err
	}
	pre := &conn{d: pcl, id: prefillClient, keyRange: spec.KeyRange, model: model}
	prefillSync(pre, e.seed)
	pcl.Close()
	out.tally.add(pre.tally)

	cl, err := server.Dial(sv.addr, firstClient)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	c := &conn{d: cl, id: firstClient, keyRange: spec.KeyRange, model: model}
	g := newGenerator(spec, 0)
	eng := sv.s.Engine()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	st0, es0 := sv.s.Stats(), eng.Stats()
	for i := 0; i < e.counted && !c.dead; i++ {
		o := g.next()
		t0 := time.Now()
		c.run(o)
		out.rtt.Record(uint64(time.Since(t0)))
	}
	st1, es1 := sv.s.Stats(), eng.Stats()
	runtime.ReadMemStats(&m1)
	out.tally.add(c.tally)
	out.ops = float64(e.counted)
	out.mutations = float64(st1.Mutations - st0.Mutations)
	out.flushes, out.fences = st1.Flushes-st0.Flushes, st1.Fences-st0.Fences
	out.stats = statsSub(es1, es0)
	out.mallocs, out.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	if st1.Batches-st0.Batches != st1.Ops-st0.Ops {
		return nil, fmt.Errorf("%s: counted pass saw %d batches for %d frames; depth 1 must give one frame per batch",
			sh.name, st1.Batches-st0.Batches, st1.Ops-st0.Ops)
	}

	// HELLO on the now idle instance: reader, channel hop, group-commit
	// window and release, with no engine work at all.
	var hello harness.Hist
	for i := 0; i < e.counted/25; i++ {
		t0 := time.Now()
		if _, err := cl.SetPipeline(1); err != nil {
			out.fail("HELLO: %v", err)
			break
		}
		hello.Record(uint64(time.Since(t0)))
	}
	out.helloP50US = us(hello.Percentile(50))

	for _, present := range model {
		if present {
			out.liveKeys++
		}
	}
	_, keys, _, err := scanKeys(sv.addr, prefillClient, &out.tally)
	if err != nil {
		return nil, err
	}
	if keys != out.liveKeys {
		out.fail("counted pass: %d keys stored, model holds %d", keys, out.liveKeys)
	}
	cl.Close()
	sv.s.Close()
	closed = true
	out.totalFl, out.totalFe = eng.Counters()
	out.liveWords, _ = eng.Footprint()
	return out, nil
}

// shadow is the bench-owned copy of the serving path's public calls.
type shadow struct {
	raw     engine.Engine      // what the engine.Detect* helpers get
	wrap    *countingEngine    // nil when the structure sees the raw engine
	table   *skiplist.SkipList // built on wrap when set, else on raw
	workers [2]*engine.Ctx     // client id mod 2, as the server routes
	tr      *tracer            // nil: untraced
	nreq    int
	reqBuf  []byte
	respBuf []byte

	reqBytes, respBytes uint64
	scans, scanKeys     uint64
}

// newShadow mirrors server.New on an anonymous-media engine of the same
// configuration: set-up context, table at root 0, queue at root 4, drain,
// then one context per worker.
func newShadow(cfg server.Config, wrapped bool) *shadow {
	raw := engine.New(engine.Config{
		Kind: cfg.Kind, Words: cfg.Words, Track: true,
		Clients: cfg.Clients, DetectRing: cfg.Ring,
	})
	s := &shadow{raw: raw}
	seen := raw
	if wrapped {
		s.wrap = &countingEngine{Engine: raw}
		seen = s.wrap
	}
	c := raw.NewCtx()
	s.table = skiplist.NewAt(seen, c, 0)
	queue.NewAt(raw, c, 4)
	raw.Drain(c)
	s.workers[0], s.workers[1] = raw.NewCtx(), raw.NewCtx()
	return s
}

// Do carries one request through encode, decode, execute, drain, encode and
// decode, timing each call when the request is sampled.
func (s *shadow) Do(req wire.Request) (wire.Response, error) {
	tr := s.tr
	sampled := tr != nil && s.nreq%serveSampleEvery == 0
	s.nreq++
	var root int32
	var t0, t1 int64
	if sampled {
		t0 = tr.now()
		root = tr.open(int32(s.nreq-1), t0)
	}
	s.reqBuf = wire.AppendRequest(s.reqBuf[:0], req)
	if sampled {
		t1 = tr.now()
		tr.child(root, "wire.encode_req", "wire", t0, t1)
	}
	r, err := wire.DecodeRequest(s.reqBuf[4:])
	if sampled {
		t0 = tr.now()
		tr.child(root, "wire.decode_req", "wire", t1, t0)
	}
	if err != nil {
		return wire.Response{}, err
	}
	s.reqBytes += uint64(len(s.reqBuf))

	resp := s.exec(r, sampled, root)

	c := s.workers[int(r.Client)%len(s.workers)]
	if sampled {
		t0 = tr.now()
	}
	engine.DetectDrain(s.raw, c) // the release of a one-frame batch
	if sampled {
		t1 = tr.now()
		tr.child(root, "engine.detect_drain", "engine", t0, t1)
	}
	s.respBuf = wire.AppendResponse(s.respBuf[:0], resp)
	if sampled {
		t0 = tr.now()
		tr.child(root, "wire.encode_resp", "wire", t1, t0)
	}
	back, err := wire.DecodeResponse(s.respBuf[4:])
	if sampled {
		t1 = tr.now()
		tr.child(root, "wire.decode_resp", "wire", t0, t1)
		tr.close(root, t1)
	}
	s.respBytes += uint64(len(s.respBuf))
	if err != nil {
		return wire.Response{}, err
	}
	if back.Status == wire.StatusError {
		return back, &wire.ProtocolError{Reason: back.Err}
	}
	return back, nil
}

// exec follows server.worker.exec for the operations the generator issues.
func (s *shadow) exec(r wire.Request, sampled bool, root int32) wire.Response {
	e, tr := s.raw, s.tr
	c := s.workers[int(r.Client)%len(s.workers)]
	var t0 int64
	begin := func() {
		if sampled {
			t0 = tr.now()
		}
	}
	end := func(name, layer string) {
		if sampled {
			tr.child(root, name, layer, t0, tr.now())
		}
	}
	if r.Op != wire.OpScan && (r.Key == 0 || r.Key > structures.KeyMax) {
		return wire.Response{Status: wire.StatusError, Err: fmt.Sprintf("key %d outside usable range", r.Key)}
	}
	switch r.Op {
	case wire.OpGet:
		begin()
		v, ok := s.table.Get(c, r.Key)
		end("structures.get", "structures")
		return wire.Response{Status: wire.StatusOK, Result: ok, Known: true, Rval: v}
	case wire.OpScan:
		from := r.Key
		if from == 0 {
			from = 1
		}
		begin()
		pairs := make([]wire.KV, 0, r.Val)
		s.table.Range(c, from, structures.KeyMax, func(k, v uint64) bool {
			pairs = append(pairs, wire.KV{Key: k, Val: v})
			return uint64(len(pairs)) < r.Val
		})
		end("structures.range", "structures")
		s.scans++
		s.scanKeys += uint64(len(pairs))
		return wire.Response{Status: wire.StatusOK, Result: true, Known: true, Rval: uint64(len(pairs)), Pairs: pairs}
	case wire.OpInsert, wire.OpDelete:
		begin()
		d := e.Detect(int(r.Client), r.Seq)
		end("engine.detect_precheck", "engine")
		if d.Verdict == engine.Committed {
			return wire.Response{Status: wire.StatusOK, Result: d.Result, Known: d.KnownResult,
				Verdict: uint8(engine.Committed), Rval: d.Rval}
		}
		var result bool
		if r.Op == wire.OpInsert {
			begin()
			engine.DetectBeginDeferred(e, c, int(r.Client), r.Seq, engine.DetectInsert, r.Key, r.Val, true)
			end("engine.detect_begin", "engine")
			begin()
			result = s.table.Insert(c, r.Key, r.Val)
			end("structures.insert", "structures")
		} else {
			begin()
			engine.DetectBeginDeferred(e, c, int(r.Client), r.Seq, engine.DetectDelete, r.Key, 0, false)
			end("engine.detect_begin", "engine")
			begin()
			result = s.table.Delete(c, r.Key)
			end("structures.delete", "structures")
		}
		begin()
		engine.DetectEndDeferred(e, c, result, 0)
		end("engine.detect_end", "engine")
		return wire.Response{Status: wire.StatusOK, Result: result, Known: true, Verdict: uint8(engine.Committed)}
	}
	return wire.Response{Status: wire.StatusError, Err: "bench shadow: " + r.Op.String() + " is not replayed"}
}

// shadowRun is the outcome of one replay.
type shadowRun struct {
	tally
	s                *shadow
	perReqNS         float64 // wall time per counted request
	calls            engineCalls
	totalFl, totalFe uint64
}

// runShadow replays prefill + the counted requests.
func (e *env) runShadow(sh serveShape, cfg server.Config, wrapped, traced bool) *shadowRun {
	s := newShadow(cfg, wrapped)
	spec := sh.spec(e)
	model := make([]bool, spec.KeyRange+1)
	pre := &conn{d: s, id: prefillClient, keyRange: spec.KeyRange, model: model}
	prefillSync(pre, e.seed) // replayed, but neither traced nor counted
	if traced {
		s.tr = newTracer()
	}
	s.nreq, s.reqBytes, s.respBytes, s.scans, s.scanKeys = 0, 0, 0, 0, 0
	var before engineCalls
	if s.wrap != nil {
		before = s.wrap.n
	}
	c := &conn{d: s, id: firstClient, keyRange: spec.KeyRange, model: model}
	g := newGenerator(spec, 0)
	t0 := time.Now()
	for i := 0; i < e.counted && !c.dead; i++ {
		c.run(g.next())
	}
	out := &shadowRun{s: s, perReqNS: float64(time.Since(t0)) / float64(e.counted)}
	out.tally.add(pre.tally)
	out.tally.add(c.tally)
	if s.wrap != nil {
		out.calls = s.wrap.n.sub(before)
	}
	out.totalFl, out.totalFe = s.raw.Counters()
	return out
}

// serveLayers is the counted + traced pass of a served workload, preceded
// by one short window in the workload's real shape for the layer numbers
// that only exist under concurrency (batch size, helps, retries).
func (e *env) serveLayers(sh serveShape, em *emitter) (*outcome, error) {
	out := &outcome{}

	// Real shape, short: what batching and contention do.
	sv, _, err := e.setupServed(sh.name, &out.tally)
	if err != nil {
		return nil, err
	}
	es0 := sv.s.Engine().Stats()
	w, err := e.runWindows(sh, sv.addr, sv.s.Stats, 1, e.layerWindow, e.warm)
	if err != nil {
		sv.s.Close()
		return nil, err
	}
	es1 := sv.s.Engine().Stats()
	m := w.merge()
	out.tally.add(m.tally)
	a, b := w.stats[0], w.stats[1]
	em.emit("server.batch_ops", float64(b.Ops-a.Ops)/float64(b.Batches-a.Batches))
	em.emit("server.replays", float64(b.Replays-a.Replays))
	em.emit("patomic.helps_per_mop", float64(es1.Helps-es0.Helps)/float64(m.attempted)*1e6)
	em.emit("patomic.retries_per_mop", float64(es1.Retries-es0.Retries)/float64(m.attempted)*1e6)
	for k, name := range map[opKind]string{kGet: "loadgen.get_p50_us", kInsert: "loadgen.insert_p50_us", kDelete: "loadgen.delete_p50_us", kScan: "loadgen.scan_p50_us"} {
		em.emit(name, us(m.kinds[k].Percentile(50))) // 0 when the mix has no such operation
	}
	em.emit("loadgen.latency_p99_us", us(m.winHist[0].Percentile(99)))
	em.emit("loadgen.latency_p999_us", us(m.winHist[0].Percentile(99.9)))
	_, keys, firstKey, err := scanKeys(sv.addr, prefillClient, &out.tally)
	if err != nil {
		sv.s.Close()
		return nil, err
	}
	sv.s.Close()
	next, newMS, readyMS, getMS, err := e.restartInProcess(sv.cfg, firstKey, &out.tally)
	if err != nil {
		return nil, err
	}
	next.s.Close()
	em.emit("recovery.recover_ms", newMS)
	em.emit("recovery.ready_ms", readyMS)
	em.emit("recovery.first_get_ms", getMS)
	em.emit("recovery.keys", float64(keys))
	em.emit("recovery.media_mb", float64(sv.cfg.Words)*8/(1<<20))

	// (1) Served, counted.
	sc, err := e.runServedCounted(sh)
	if err != nil {
		return nil, err
	}
	out.tally.add(sc.tally)
	emitEngineStats(em, sc.stats, sc.flushes, sc.fences, sc.ops, sc.mutations)
	em.emit("server.go_allocs_per_op", float64(sc.mallocs)/sc.ops)
	em.emit("server.go_bytes_per_op", float64(sc.bytes)/sc.ops)
	em.emit("server.rtt_hello_us", sc.helloP50US)
	em.emit("palloc.live_words_per_key", float64(sc.liveWords)/float64(sc.liveKeys))

	// (2) Shadow: wrapped + traced, wrapped untraced, raw untraced.
	traced := e.runShadow(sh, sc.cfg, true, true)
	plain := e.runShadow(sh, sc.cfg, true, false)
	raw := e.runShadow(sh, sc.cfg, false, false)
	for _, r := range []*shadowRun{traced, plain, raw} {
		out.tally.add(r.tally)
	}
	out.check("shadow flush+fence totals = served 1-connection totals",
		traced.totalFl == sc.totalFl && traced.totalFe == sc.totalFe,
		fmt.Sprintf("shadow %d/%d, served %d/%d", traced.totalFl, traced.totalFe, sc.totalFl, sc.totalFe))
	out.check("wrapped structure totals = unwrapped totals",
		traced.totalFl == raw.totalFl && traced.totalFe == raw.totalFe && plain.totalFl == raw.totalFl && plain.totalFe == raw.totalFe,
		fmt.Sprintf("wrapped %d/%d, unwrapped %d/%d", traced.totalFl, traced.totalFe, raw.totalFl, raw.totalFe))
	emitEngineCalls(em, traced.calls, sc.ops)
	em.emit("wire.req_bytes_per_op", float64(traced.s.reqBytes)/sc.ops)
	em.emit("wire.resp_bytes_per_op", float64(traced.s.respBytes)/sc.ops)
	if traced.s.scans > 0 {
		em.emit("structures.range_keys_per_scan", float64(traced.s.scanKeys)/float64(traced.s.scans))
	} else {
		em.na("structures.range_keys_per_scan")
	}
	em.emit("palloc.limbo_len", float64(traced.s.workers[0].Cache.LimboLen()+traced.s.workers[1].Cache.LimboLen()))
	em.emit("trace.overhead_share", (traced.perReqNS-plain.perReqNS)/plain.perReqNS)
	e.printf("  shadow per request: traced %.0f ns, untraced %.0f ns, unwrapped %.0f ns\n", traced.perReqNS, plain.perReqNS, raw.perReqNS)

	med, count := spanMedians(traced.s.tr.spans)
	for _, sp := range []struct{ metric, span string }{
		{"wire.encode_req_ns", "wire.encode_req"}, {"wire.decode_req_ns", "wire.decode_req"},
		{"wire.encode_resp_ns", "wire.encode_resp"}, {"wire.decode_resp_ns", "wire.decode_resp"},
		{"engine.detect_precheck_ns", "engine.detect_precheck"}, {"engine.detect_begin_ns", "engine.detect_begin"},
		{"engine.detect_end_ns", "engine.detect_end"}, {"engine.detect_drain_ns", "engine.detect_drain"},
		{"structures.get_ns", "structures.get"}, {"structures.insert_ns", "structures.insert"},
		{"structures.delete_ns", "structures.delete"}, {"structures.range_ns", "structures.range"},
	} {
		if count[sp.span] == 0 {
			em.na(sp.metric)
		} else {
			em.emit(sp.metric, med[sp.span])
		}
	}
	em.emit("server.unattributed_us", us(sc.rtt.Percentile(50))-med["request"]/1e3)
	e.printf("  served 1-connection RTT p50 %.1f us over %d requests; shadow request p50 %.2f us over %d traced\n",
		us(sc.rtt.Percentile(50)), sc.rtt.Count(), med["request"]/1e3, count["request"])
	self, nreq := selfTimes(traced.s.tr.spans)
	for _, l := range sortedKeys(self) {
		e.printf("  self time per traced request: %-10s %8.1f ns\n", l, self[l])
	}
	path := filepath.Join(e.root, "bench", "out", sh.name+".trace.json")
	if err := traced.s.tr.write(path, sh.name, e.seed, serveSampleEvery); err != nil {
		return nil, err
	}
	e.printf("  %d spans of %d requests written to %s\n", len(traced.s.tr.spans), nreq, path)

	e.emitMicro(em)
	em.na("engine.scaling_efficiency")
	return out, nil
}
