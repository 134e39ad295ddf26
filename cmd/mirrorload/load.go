package main

// This file is the load generator: YCSB mixes driven through mirrord's wire
// protocol by concurrent clients, with every round trip recorded in an
// HDR-style histogram so the report carries real tail percentiles
// (p50/p99/p999) instead of throughput alone. It reports native wall-clock
// and exact counts, no modeled cost: a wire round trip costs tens of
// microseconds, two orders above the modeled media costs. The server's
// side of a session (mutations, flushes, fences, announce-barrier fences)
// is read with STATS before and after it.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mirror/internal/harness"
	"mirror/internal/server"
	"mirror/internal/structures"
	"mirror/internal/wire"
	"mirror/internal/workload"
)

// servingKeyRange is the default key range: deliberately small (the
// serving bottleneck is the wire and the fence discipline, not structure
// depth).
const servingKeyRange = 4096

// checkKeyRange rejects a key range the served set cannot hold: the
// workload draws keys from [1, r], and the server answers a key above
// structures.KeyMax with an error frame.
func checkKeyRange(r uint64) error {
	if r < 1 || r > structures.KeyMax {
		return fmt.Errorf("key range %d outside [1, %d]", r, structures.KeyMax)
	}
	return nil
}

// servingSpec describes one client-side load session against a serving
// address (in-process or remote).
type servingSpec struct {
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

// servingLoad is the outcome of a load session.
type servingLoad struct {
	Ops     uint64
	Elapsed time.Duration
	// Scans is how many scans the session issued; each is one or more
	// SCAN frames (Server.Scans).
	Scans uint64
	// Hist holds every operation's wire round-trip time in nanoseconds.
	Hist harness.Hist
	// Server holds the server's STATS deltas over the session (a STATS
	// frame counts as no op), and AnnounceFences the engine's
	// announce-barrier fences among them. Witnesses, WitnessFences and
	// Unverdicted are the engine's witness records, the fences witnesses
	// paid for themselves, and the mutations acknowledged on their own
	// install's evidence, with no verdict line.
	Server                                server.Stats
	AnnounceFences                        uint64
	Witnesses, WitnessFences, Unverdicted uint64
	// Attach is what the server's attach cost, as STATS reports it.
	Attach server.Attach
	// Before and After are the STATS snapshots around the session, whose
	// reclamation gauges (live words, limbo, epoch lag) are not deltas.
	Before, After server.Stats
}

// perMutation returns n per mutation of the session.
func (l servingLoad) perMutation(n uint64) float64 {
	if l.Server.Mutations == 0 {
		return 0
	}
	return float64(n) / float64(l.Server.Mutations)
}

// framesPerScan returns the SCAN frames the server served per scan the
// session issued: how many pages a scan took.
func (l servingLoad) framesPerScan() float64 {
	if l.Scans == 0 {
		return 0
	}
	return float64(l.Server.Scans) / float64(l.Scans)
}

// Kops returns throughput in thousand operations per second — the honest
// unit for a wire-protocol tier, where each operation pays a round trip.
func (l servingLoad) Kops() float64 {
	if l.Elapsed <= 0 {
		return 0
	}
	return float64(l.Ops) / l.Elapsed.Seconds() / 1e3
}

// wireWorker adapts one wire client to the workload driver, timing every
// operation. Scans and read-modify-writes ride their native opcodes:
// Scan(from, to) pages SCAN frames across the span (each frame carries at
// most wire.MaxScanKeys pairs), RMW reads the current value and
// compare-and-sets it with one RMW frame.
//
// With pipe set (servingSpec.Pipeline > 1), point reads and mutations are
// submitted asynchronously up to the granted window; each frame's latency
// is recorded when its response completes, submit-to-response. Scans and
// RMWs stay synchronous (they need their answers), draining the pipe
// first so the recorded latencies stay frame-accurate.
type wireWorker struct {
	cl   *server.Client
	h    *harness.Hist
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
// through [from, to] at most wire.MaxScanKeys pairs a frame. SCAN carries
// no end key, so a page may run past to; only the pairs inside count.
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

// servingPrefill loads the deterministic half-range prefill through the
// wire as the given client id, so a measured session starts from the same
// steady state as the in-memory benchmarks.
func servingPrefill(addr string, id uint32, keyRange uint64, seed int64) (int, error) {
	if err := checkKeyRange(keyRange); err != nil {
		return 0, err
	}
	cl, err := server.Dial(addr, id)
	if err != nil {
		return 0, err
	}
	defer cl.Close()
	n := workload.PrefillHalf(workload.Target{
		Name:      "wire-prefill",
		NewWorker: func() workload.Worker { return &wireWorker{cl: cl, h: &harness.Hist{}} },
	}, keyRange, seed)
	return n, nil
}

// runServingLoad drives one YCSB workload through the wire protocol with
// Conns concurrent synchronous clients and returns the merged latency
// histogram. Each client gets its own connection and client id; a client
// that loses the server mid-run panics (the load driver has no story for a
// vanishing peer — crash resolution is the server test battery's job).
func runServingLoad(spec servingSpec) (servingLoad, error) {
	mix, dist, ok := workload.YCSBMix(spec.Workload)
	if !ok {
		return servingLoad{}, fmt.Errorf("serving: unknown YCSB workload %q (want A..F)", spec.Workload)
	}
	if spec.Conns <= 0 {
		return servingLoad{}, fmt.Errorf("serving: need at least one connection")
	}
	if err := checkKeyRange(spec.KeyRange); err != nil {
		return servingLoad{}, err
	}
	// A connection of its own reads STATS around the session; the id is the
	// first client's, which a non-mutating frame leaves alone.
	stats, err := server.Dial(spec.Addr, spec.BaseID)
	if err != nil {
		return servingLoad{}, err
	}
	defer stats.Close()
	st0, es0, err := stats.Stats()
	if err != nil {
		return servingLoad{}, err
	}
	var (
		mu      sync.Mutex
		hists   []*harness.Hist
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
			h := &harness.Hist{}
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
	load := servingLoad{Ops: res.Ops, Elapsed: res.Elapsed, Scans: res.Scans}
	for _, h := range hists {
		load.Hist.Merge(h)
	}
	// A pipelined client may end with frames in flight: complete them, so
	// that the STATS below counts every mutation the session sent.
	for _, cl := range clients {
		if _, err := cl.Drain(); err != nil {
			return servingLoad{}, err
		}
	}
	st1, es1, err := stats.Stats()
	if err != nil {
		return servingLoad{}, err
	}
	load.Server = server.Stats{
		Ops: st1.Ops - st0.Ops, Mutations: st1.Mutations - st0.Mutations,
		Replays: st1.Replays - st0.Replays, Scans: st1.Scans - st0.Scans,
		Batches: st1.Batches - st0.Batches, Flushes: st1.Flushes - st0.Flushes,
		Fences: st1.Fences - st0.Fences,
	}
	load.AnnounceFences = es1.AnnounceFences - es0.AnnounceFences
	load.Witnesses = es1.Witnesses - es0.Witnesses
	load.WitnessFences = es1.WitnessFences - es0.WitnessFences
	load.Unverdicted = es1.Unverdicted - es0.Unverdicted
	load.Attach = st1.Attach
	load.Before, load.After = st0, st1
	return load, nil
}
