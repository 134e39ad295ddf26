package harness

// This file measures the serving tier end to end: YCSB mixes driven through
// mirrord's wire protocol by concurrent synchronous clients, with every
// round trip recorded in an HDR-style histogram so the report carries real
// tail percentiles (p50/p99/p999) instead of throughput alone. The same
// driver backs cmd/mirrorload (against an external mirrord address) and the
// BENCH_6-style serving panels (against an in-process server, where the
// engine's fence counters are in reach for the batching ablation).
//
// Serving sessions report native wall-clock and exact counts, no modeled
// cost: a wire round trip costs tens of microseconds, two orders above the
// modeled media costs. What the serving panels isolate is the protocol
// cost — fences per mutation with and without cross-client batching — and
// the client-visible latency distribution.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mirror/internal/engine"
	"mirror/internal/server"
	"mirror/internal/wire"
	"mirror/internal/workload"
)

// ServingKeyRange is the serving panels' default key range: deliberately
// small (the serving bottleneck is the wire and the fence discipline, not
// structure depth).
const ServingKeyRange = 4096

// ServingSpec describes one client-side load session against a serving
// address (in-process or remote).
type ServingSpec struct {
	Addr     string
	Workload byte   // YCSB letter 'A'..'F'
	Conns    int    // concurrent clients, one connection each
	BaseID   uint32 // first client id; the session uses [BaseID, BaseID+Conns)
	KeyRange uint64
	Duration time.Duration
	Seed     int64
	// Pipeline requests that many frames in flight per client (HELLO
	// handshake; the server clamps to its descriptor-ring depth). 0 and 1
	// mean synchronous round trips.
	Pipeline int
}

// ServingLoad is the client-side outcome of a load session.
type ServingLoad struct {
	Ops     uint64
	Elapsed time.Duration
	// Hist holds every operation's wire round-trip time in nanoseconds.
	Hist Hist
}

// Kops returns throughput in thousand operations per second — the honest
// unit for a wire-protocol tier, where each operation pays a round trip.
func (l ServingLoad) Kops() float64 {
	if l.Elapsed <= 0 {
		return 0
	}
	return float64(l.Ops) / l.Elapsed.Seconds() / 1e3
}

// wireWorker adapts one wire client to the workload driver, timing every
// operation. Scans and read-modify-writes ride their native opcodes:
// Scan(from, to) pages SCAN frames across the span (each frame bounded by
// wire.MaxScanKeys), RMW reads the current value and compare-and-sets it
// with one RMW frame.
//
// With pipe set (ServingSpec.Pipeline > 1), point reads and mutations are
// submitted asynchronously up to the granted window; each frame's latency
// is recorded when its response completes, submit-to-response. Scans and
// RMWs stay synchronous (they need their answers), draining the pipe
// first so the recorded latencies stay frame-accurate.
type wireWorker struct {
	cl   *server.Client
	h    *Hist
	pipe bool
	// t0s holds the submit times of the client's in-flight frames,
	// oldest first — index-aligned with cl.InFlight().
	t0s []time.Time
}

func (w *wireWorker) Insert(key, val uint64) bool {
	if w.pipe {
		w.submit(wire.OpInsert, key, val, 0)
		return true
	}
	t0 := time.Now()
	ok, err := w.cl.Insert(key, val)
	w.record(t0, err)
	return ok
}

func (w *wireWorker) Delete(key uint64) bool {
	if w.pipe {
		w.submit(wire.OpDelete, key, 0, 0)
		return true
	}
	t0 := time.Now()
	ok, err := w.cl.Delete(key)
	w.record(t0, err)
	return ok
}

func (w *wireWorker) Contains(key uint64) bool {
	if w.pipe {
		w.submit(wire.OpGet, key, 0, 0)
		return true
	}
	t0 := time.Now()
	_, ok, err := w.cl.Get(key)
	w.record(t0, err)
	return ok
}

// Scan implements workload.Scanner over native SCAN frames, paging
// through [from, to] wire.MaxScanKeys keys at a time.
func (w *wireWorker) Scan(from, to uint64) int {
	w.drainPipe()
	t0 := time.Now()
	n := 0
	for start := from; start <= to; {
		limit := to - start + 1
		if limit > wire.MaxScanKeys {
			limit = wire.MaxScanKeys
		}
		pairs, err := w.cl.Scan(start, int(limit))
		if err != nil {
			w.record(t0, err)
		}
		for _, kv := range pairs {
			if kv.Key <= to {
				n++
			}
		}
		if uint64(len(pairs)) < limit {
			break
		}
		last := pairs[len(pairs)-1].Key
		if last >= to || last < start {
			break
		}
		start = last + 1
	}
	w.record(t0, nil)
	return n
}

// RMW implements workload.RMWer: read the current value, then a native
// compare-and-set RMW frame. A miss (absent key or a concurrent change
// between the read and the CAS) is a failed RMW, as YCSB counts it.
func (w *wireWorker) RMW(key, val uint64) bool {
	w.drainPipe()
	t0 := time.Now()
	cur, ok, err := w.cl.Get(key)
	if err != nil {
		w.record(t0, err)
	}
	if !ok {
		w.record(t0, nil)
		return false
	}
	done, err := w.cl.RMW(key, cur, val)
	w.record(t0, err)
	return done
}

// submit pipelines one frame and records the latency of every frame whose
// response completed while making room in the window.
func (w *wireWorker) submit(op wire.Op, key, val, arg uint64) {
	t0 := time.Now()
	done, err := w.cl.Submit(op, key, val, arg)
	if err != nil {
		panic(fmt.Sprintf("serving load: client %d: %v", w.cl.ID(), err))
	}
	now := time.Now()
	for range done {
		w.h.Record(uint64(now.Sub(w.t0s[0])))
		w.t0s = w.t0s[1:]
	}
	w.t0s = append(w.t0s, t0)
}

// drainPipe completes every in-flight frame before a synchronous
// exchange, keeping the latency bookkeeping aligned with the client FIFO.
func (w *wireWorker) drainPipe() {
	if !w.pipe || len(w.t0s) == 0 {
		return
	}
	done, err := w.cl.Drain()
	if err != nil {
		panic(fmt.Sprintf("serving load: client %d: %v", w.cl.ID(), err))
	}
	now := time.Now()
	for range done {
		w.h.Record(uint64(now.Sub(w.t0s[0])))
		w.t0s = w.t0s[1:]
	}
}

func (w *wireWorker) record(t0 time.Time, err error) {
	if err != nil {
		panic(fmt.Sprintf("serving load: client %d: %v", w.cl.ID(), err))
	}
	w.h.Record(uint64(time.Since(t0)))
}

// ServingPrefill loads the deterministic half-range prefill through the
// wire as the given client id, so a measured session starts from the same
// steady state as the in-memory benchmarks.
func ServingPrefill(addr string, id uint32, keyRange uint64, seed int64) (int, error) {
	cl, err := server.Dial(addr, id)
	if err != nil {
		return 0, err
	}
	defer cl.Close()
	n := workload.PrefillHalf(workload.Target{
		Name:      "wire-prefill",
		NewWorker: func() workload.Worker { return &wireWorker{cl: cl, h: &Hist{}} },
	}, keyRange, seed)
	return n, nil
}

// RunServingLoad drives one YCSB workload through the wire protocol with
// Conns concurrent synchronous clients and returns the merged latency
// histogram. Each client gets its own connection and client id; a client
// that loses the server mid-run panics (the load driver has no story for a
// vanishing peer — crash resolution is the server test battery's job).
func RunServingLoad(spec ServingSpec) (ServingLoad, error) {
	mix, dist, ok := workload.YCSBMix(spec.Workload)
	if !ok {
		return ServingLoad{}, fmt.Errorf("serving: unknown YCSB workload %q (want A..F)", spec.Workload)
	}
	if spec.Conns <= 0 {
		return ServingLoad{}, fmt.Errorf("serving: need at least one connection")
	}
	var (
		mu      sync.Mutex
		hists   []*Hist
		clients []*server.Client
		nextID  atomic.Uint32
	)
	defer func() {
		for _, cl := range clients {
			cl.Close()
		}
	}()
	target := workload.Target{
		Name: fmt.Sprintf("wire-ycsb-%c", spec.Workload),
		NewWorker: func() workload.Worker {
			id := spec.BaseID + nextID.Add(1) - 1
			cl, err := server.Dial(spec.Addr, id)
			if err != nil {
				panic(fmt.Sprintf("serving load: dial as client %d: %v", id, err))
			}
			pipe := false
			if spec.Pipeline > 1 {
				granted, err := cl.SetPipeline(spec.Pipeline)
				if err != nil {
					panic(fmt.Sprintf("serving load: client %d handshake: %v", id, err))
				}
				pipe = granted > 1
			}
			h := &Hist{}
			mu.Lock()
			hists = append(hists, h)
			clients = append(clients, cl)
			mu.Unlock()
			return &wireWorker{cl: cl, h: h, pipe: pipe}
		},
	}
	res := workload.Run(target, workload.Spec{
		KeyRange: spec.KeyRange,
		Mix:      mix,
		Threads:  spec.Conns,
		Duration: spec.Duration,
		Seed:     spec.Seed,
		Dist:     dist,
	})
	load := ServingLoad{Ops: res.Ops, Elapsed: res.Elapsed}
	for _, h := range hists {
		load.Hist.Merge(h)
	}
	return load, nil
}

// ServingConfig parameterizes the serving ablation panels.
type ServingConfig struct {
	// Conns is the connection sweep; each count is measured separately.
	Conns []int
	// Pipelines is the per-client pipeline-depth sweep (default {1}).
	Pipelines []int
	// Workloads are YCSB letters ('A'..'F'); default {'A'}.
	Workloads []byte
	// Kinds are the engines to serve; default all durable kinds.
	Kinds []engine.Kind
	// KeyRange overrides ServingKeyRange.
	KeyRange uint64
	// Workers overrides the server's worker count (default 2).
	Workers int
}

func (sc *ServingConfig) setDefaults() {
	if len(sc.Conns) == 0 {
		sc.Conns = []int{1, 4}
	}
	if len(sc.Pipelines) == 0 {
		sc.Pipelines = []int{1}
	}
	if len(sc.Workloads) == 0 {
		sc.Workloads = []byte{'A'}
	}
	if len(sc.Kinds) == 0 {
		for _, k := range engine.Kinds() {
			if k.Durable() {
				sc.Kinds = append(sc.Kinds, k)
			}
		}
	}
	if sc.KeyRange == 0 {
		sc.KeyRange = ServingKeyRange
	}
	if sc.Workers <= 0 {
		sc.Workers = 2
	}
}

// RunServingSession builds an in-process server, prefills it through the
// wire, drives one YCSB load session, and returns the measured point with
// the server's counter deltas attached. batch toggles cross-client fence
// batching (false runs the per-mutation-fence ablation baseline).
func RunServingSession(o Options, sc ServingConfig, kind engine.Kind, letter byte, conns, pipeline int, batch bool) (ServingPoint, error) {
	sc.setDefaults()
	o.setDefaults()
	if pipeline < 1 {
		pipeline = 1
	}
	s, err := server.New(server.Config{
		Kind:    kind,
		Clients: conns + 2,
		Workers: sc.Workers,
		NoBatch: !batch,
	})
	if err != nil {
		return ServingPoint{}, err
	}
	defer s.Close()
	if err := s.Listen("127.0.0.1:0"); err != nil {
		return ServingPoint{}, err
	}
	if _, err := ServingPrefill(s.Addr().String(), 0, sc.KeyRange, o.Seed); err != nil {
		return ServingPoint{}, err
	}
	st0 := s.Stats()
	load, err := RunServingLoad(ServingSpec{
		Addr:     s.Addr().String(),
		Workload: letter,
		Conns:    conns,
		BaseID:   1,
		KeyRange: sc.KeyRange,
		Duration: o.Duration,
		Seed:     o.Seed,
		Pipeline: pipeline,
	})
	if err != nil {
		return ServingPoint{}, err
	}
	st1 := s.Stats()
	p := ServingPoint{
		Engine:    kind.String(),
		Workload:  fmt.Sprintf("YCSB-%c", letter&^0x20),
		Conns:     conns,
		Pipeline:  pipeline,
		Batch:     batch,
		KeyRange:  int(sc.KeyRange),
		Ops:       load.Ops,
		Kops:      load.Kops(),
		P50NS:     load.Hist.Percentile(50),
		P99NS:     load.Hist.Percentile(99),
		P999NS:    load.Hist.Percentile(99.9),
		MaxNS:     load.Hist.Max(),
		Mutations: st1.Mutations - st0.Mutations,
		Scans:     st1.Scans - st0.Scans,
		Batches:   st1.Batches - st0.Batches,
		Flushes:   st1.Flushes - st0.Flushes,
		Fences:    st1.Fences - st0.Fences,
	}
	if p.Mutations > 0 {
		p.FencesPerMutation = float64(p.Fences) / float64(p.Mutations)
	}
	return p, nil
}

// AppendServingAblation appends the serving-tier panels to a report: each
// requested engine × YCSB workload × connection count, measured twice in
// the same process — cross-client batching on, then off (one fence per
// mutation) — so the committed fences-per-mutation pair is the direct
// group-commit ablation. Latency percentiles come from per-operation
// histograms over every wire round trip, not a subsample.
func AppendServingAblation(r *BenchReport, o Options, sc ServingConfig) error {
	sc.setDefaults()
	o.setDefaults()
	r.Options.ServingConns = sc.Conns
	r.Options.ServingWorkloads = string(sc.Workloads)
	r.Options.ServingPipelines = sc.Pipelines
	for _, kind := range sc.Kinds {
		for _, letter := range sc.Workloads {
			for _, conns := range sc.Conns {
				for _, pipeline := range sc.Pipelines {
					for _, batch := range []bool{true, false} {
						p, err := RunServingSession(o, sc, kind, letter, conns, pipeline, batch)
						if err != nil {
							return err
						}
						r.Serving = append(r.Serving, p)
					}
				}
			}
		}
	}
	return nil
}
