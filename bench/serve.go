package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mirror/internal/engine"
	"mirror/internal/harness"
	"mirror/internal/server"
	"mirror/internal/workload"
)

// serveShape is one served workload: a YCSB mix and how the clients hold
// their connections. Connection counts are fixed, never scaled to the host.
type serveShape struct {
	name   string
	letter byte // YCSB workload letter
	conns  int
	depth  int // frames in flight per connection
}

var serveShapes = []serveShape{
	{name: "serve-a-sync", letter: 'A', conns: 2, depth: 1},
	{name: "serve-a-pipe", letter: 'A', conns: 1, depth: 8},
	{name: "serve-e-scan", letter: 'E', conns: 2, depth: 1},
}

const (
	serveKeyRange = 1 << 16
	serveWords    = 1 << 23
	prefillClient = 0 // client id that loads the prefill
	firstClient   = 1 // the load uses ids firstClient..firstClient+conns-1
	prefillDepth  = 8
	shortRangeDiv = 16 // -short divides key ranges and device sizes by this
	// A measured window. A run is cut into many short windows so that a
	// quarter of them can be expected to pass without the host interfering
	// (see undisturbed); serve-e-scan still completes a thousand requests in one.
	windowLen = 100 * time.Millisecond
)

func (e *env) serveKeyRange() uint64 {
	if e.short {
		return serveKeyRange / shortRangeDiv
	}
	return serveKeyRange
}

// serverConfig is mirrord's default flag set with only the device enlarged,
// over a file-backed media image (Track on, MAP_SHARED mmap, no msync).
func (e *env) serverConfig(media string) server.Config {
	words := serveWords
	if e.short {
		words /= shortRangeDiv
	}
	return server.Config{
		Kind:      engine.MirrorDRAM,
		Words:     words,
		Ring:      engine.DefaultDetectRing,
		Clients:   64,
		Workers:   2,
		MaxBatch:  128,
		BatchWait: 25 * time.Microsecond,
		MediaPath: media,
	}
}

func (sh serveShape) spec(e *env) workload.Spec {
	mix, dist, ok := workload.YCSBMix(sh.letter)
	if !ok {
		panic("bench: unknown YCSB letter")
	}
	return workload.Spec{KeyRange: e.serveKeyRange(), Mix: mix, Seed: e.seed, Dist: dist, ScanMax: 100}
}

// served is one in-process server under test plus what set-up learned.
type served struct {
	s       *server.Server
	cfg     server.Config
	addr    string
	prefill int
}

func (e *env) removeMedia(path string) {
	os.Remove(path)
	os.Remove(path + ".meta")
}

// startServer builds a fresh server on a fresh media file and listens.
func (e *env) startServer(media string) (*served, error) {
	e.removeMedia(media)
	cfg := e.serverConfig(media)
	s, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := s.Listen("127.0.0.1:0"); err != nil {
		s.Close()
		return nil, err
	}
	return &served{s: s, cfg: cfg, addr: s.Addr().String()}, nil
}

// setupServed is one timed set-up: build on a fresh media file + pipelined
// prefill.
func (e *env) setupServed(name string, t *tally) (*served, float64, error) {
	runtime.GC() // a previous instance's replicas are garbage: reuse their memory
	t0 := time.Now()
	sv, err := e.startServer(filepath.Join(e.work, name+".img"))
	if err != nil {
		return nil, 0, err
	}
	pt, err := insertPipelined(sv.addr, prefillClient, prefillDepth, func(insert func(uint64)) {
		sv.prefill = prefillKeys(e.serveKeyRange(), e.seed, insert)
	})
	if err != nil {
		sv.s.Close()
		return nil, 0, err
	}
	t.add(pt)
	return sv, time.Since(t0).Seconds(), nil
}

// windowed is the outcome of the measured windows of one served run.
type windowed struct {
	clients []*loadStats
	stats   []server.Stats // windows+1 snapshots, one at each boundary (none across a process boundary)
	at      []time.Time
}

// runWindows drives the closed-loop clients against the server at addr
// through warm-up and the measured windows. The controller only flips the
// phase and, when the server is in this process, snapshots its counters at
// each boundary; clients book a request under the phase in which its reply
// arrived.
func (e *env) runWindows(sh serveShape, addr string, stats func() server.Stats, windows int, window, warm time.Duration) (*windowed, error) {
	spec := sh.spec(e)
	var phase atomic.Int32
	var wg sync.WaitGroup
	w := &windowed{}
	snapshot := func() {
		if stats != nil {
			w.stats = append(w.stats, stats())
		}
		w.at = append(w.at, time.Now())
	}
	for i := 0; i < sh.conns; i++ {
		cl, err := server.Dial(addr, uint32(firstClient+i))
		if err != nil {
			return nil, err
		}
		defer cl.Close()
		if sh.depth > 1 {
			granted, err := cl.SetPipeline(sh.depth)
			if err != nil {
				return nil, err
			}
			if granted != sh.depth {
				return nil, fmt.Errorf("%s: asked for depth %d, server granted %d", sh.name, sh.depth, granted)
			}
		}
		st := newLoadStats(windows)
		w.clients = append(w.clients, st)
		g := newGenerator(spec, i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if sh.depth > 1 {
				loopPipelined(cl, g, &phase, st)
			} else {
				loopSync(&conn{d: cl, id: cl.ID(), keyRange: spec.KeyRange}, g, &phase, st)
			}
		}()
	}
	time.Sleep(warm)
	for i := 1; i <= windows; i++ {
		snapshot()
		phase.Store(int32(i))
		time.Sleep(window)
	}
	snapshot()
	phase.Store(int32(windows + 1))
	wg.Wait()
	return w, nil
}

// merged is the clients' view of the measured windows, added up.
type merged struct {
	tally
	winHist []harness.Hist       // every request of each window
	kinds   [nKinds]harness.Hist // all windows, by operation kind
	kops    []float64            // per window: completed requests per second, in thousands
}

func (w *windowed) merge() *merged {
	m := &merged{winHist: make([]harness.Hist, len(w.at)-1)}
	for _, c := range w.clients {
		m.tally.add(c.tally)
		for i := range m.winHist {
			m.winHist[i].Merge(&c.winHist[i])
		}
		for k := range m.kinds {
			m.kinds[k].Merge(&c.kindHist[k])
		}
	}
	for i := range m.winHist {
		m.kops = append(m.kops, float64(m.winHist[i].Count())/w.at[i+1].Sub(w.at[i]).Seconds()/1e3)
	}
	return m
}

// add appends another instance's windows to m.
func (m *merged) add(o *merged) {
	m.tally.add(o.tally)
	m.winHist = append(m.winHist, o.winHist...)
	m.kops = append(m.kops, o.kops...)
	for k := range m.kinds {
		m.kinds[k].Merge(&o.kinds[k])
	}
}

// undisturbed picks the eighth of the windows with the highest throughput.
// On a shared host what disturbs a window (a descheduled vCPU, a neighbour in
// the cache, the kernel writing the media file back) only ever takes speed
// away, and it does so for seconds at a time, so the fastest windows are the
// ones that ran the program and not the host. Every wall-clock metric of a
// run is read off the same selection.
func undisturbed(kops []float64) []int {
	idx := make([]int, len(kops))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return kops[idx[a]] > kops[idx[b]] })
	return idx[:(len(idx)+7)/8]
}

// midMeanOf is the mean of the middle half of v over the selected indices:
// a median that keeps its digits. A histogram reads a percentile to one part
// in thirty, so the plain median of a few windows' percentiles would be one
// of a handful of values, and could read the same on every run.
func midMeanOf(v []float64, sel []int) float64 {
	picked := make([]float64, len(sel))
	for i, j := range sel {
		picked[i] = v[j]
	}
	sort.Float64s(picked)
	mid := picked[len(picked)/4 : len(picked)-len(picked)/4]
	var sum float64
	for _, x := range mid {
		sum += x
	}
	return sum / float64(len(mid))
}

// emitTimed emits throughput and the latency percentiles of a run's windows:
// the mid-mean over the undisturbed windows of each window's own value. A
// percentile needs at least ten samples beyond it in every window it is
// read from; with fewer the windows are too short to state it and the
// benchmark says so instead of printing a number it cannot support.
func emitTimed(e *env, em *emitter, kops []float64, winHist []harness.Hist) error {
	sel := undisturbed(kops)
	em.emit("throughput_kops", midMeanOf(kops, sel))
	e.printf("  throughput_kops: %d windows of %v, median of all %.1f (IQR %.1f%% of it); mid-mean of the fastest %d reported\n",
		len(kops), e.window, median(kops), 100*iqrShare(kops), len(sel))
	for _, p := range []struct {
		name string
		pct  float64
	}{{"latency_p50_us", 50}, {"latency_p90_us", 90}} {
		all := make([]float64, len(winHist))
		for i := range winHist {
			all[i] = us(winHist[i].Percentile(p.pct))
		}
		fewest := uint64(1 << 62)
		for _, i := range sel {
			fewest = min(fewest, winHist[i].Count())
		}
		beyond := float64(fewest) * (100 - p.pct) / 100
		if beyond < 10 && !e.short {
			return fmt.Errorf("%s: only %.1f samples beyond it in a window of %d; lengthen the windows", p.name, beyond, fewest)
		}
		em.emit(p.name, midMeanOf(all, sel))
		e.printf("  %-16s median of all windows %.3f; in the fastest, at least %d samples each, %.0f beyond\n", p.name, median(all), fewest, beyond)
	}
	return nil
}

// restartInProcess closes nothing: the caller has closed the old instance.
// It re-attaches the media image, listens, and times until the first GET of
// a known key answers; the instance is returned still serving.
func (e *env) restartInProcess(cfg server.Config, key uint64, t *tally) (sv *served, newMS, readyMS, getMS float64, err error) {
	t0 := time.Now()
	s, err := server.New(cfg)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	newMS = ms(time.Since(t0))
	if !s.Attached() {
		s.Close()
		return nil, 0, 0, 0, fmt.Errorf("restart: server did not attach to %s", cfg.MediaPath)
	}
	if err := s.Listen("127.0.0.1:0"); err != nil {
		s.Close()
		return nil, 0, 0, 0, err
	}
	readyMS = ms(time.Since(t0))
	sv = &served{s: s, cfg: cfg, addr: s.Addr().String()}
	cl, err := server.Dial(sv.addr, prefillClient)
	if err != nil {
		s.Close()
		return nil, 0, 0, 0, err
	}
	defer cl.Close()
	t.attempted++
	if v, ok, err := cl.Get(key); err != nil || !ok || v != key {
		t.fail("restart: GET %d after attach = (%d, %v, %v)", key, v, ok, err)
	}
	getMS = ms(time.Since(t0))
	return sv, newMS, readyMS, getMS, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(ns uint64) float64       { return float64(ns) / 1e3 }

// serveE2E is the timed, untraced run of one served workload: e.setups
// instances one after the other, each set up (timed), warmed up, measured for
// its share of the windows, checked at rest, closed, and handed to the
// restart phase. Where an instance's replicas land in memory and how its
// goroutines settle on the CPUs hold for its lifetime, so one instance per
// run would make that luck the run's result; and set-ups and restarts spread
// over the run see more of the host's weather than a block of them would.
func (e *env) serveE2E(sh serveShape, em *emitter) (*outcome, error) {
	out := &outcome{}
	bin, err := e.buildMirrord()
	if err != nil {
		return nil, err
	}
	var (
		setups, restarts           []float64
		all                        merged
		mutations, fences, flushes uint64
		ops, batches, replays      uint64
		space                      float64
		lost                       int
	)
	for i := 0; i < e.setups; i++ {
		sv, setupS, err := e.setupServed(sh.name, &out.tally)
		if err != nil {
			return nil, err
		}
		setups = append(setups, setupS)
		w, err := e.runWindows(sh, sv.addr, sv.s.Stats, e.windows/e.setups, e.window, e.warm)
		if err != nil {
			sv.s.Close()
			return nil, err
		}
		m := w.merge()
		all.add(m)
		// The counts are ratios of the deltas over all the measured windows: a
		// window of serve-e-scan holds under a hundred mutations.
		first, last := w.stats[0], w.stats[len(w.stats)-1]
		mutations += last.Mutations - first.Mutations
		fences += last.Fences - first.Fences
		flushes += last.Flushes - first.Flushes
		ops += last.Ops - first.Ops
		batches += last.Batches - first.Batches
		replays += last.Replays - first.Replays

		// Quiesced: what is stored must be what the acknowledged answers add up to.
		stored, keys, firstKey, err := scanKeys(sv.addr, prefillClient, &out.tally)
		if err != nil {
			sv.s.Close()
			return nil, err
		}
		want := int64(sv.prefill) + m.inserted - m.deleted
		out.check(fmt.Sprintf("instance %d: stored keys = prefill + inserts - deletes", i+1), int64(keys) == want,
			fmt.Sprintf("stored %d, acknowledged %d", keys, want))
		words, replicas := sv.s.Engine().Footprint()
		space = float64(words) * float64(replicas) * 8 / float64(keys)

		// Restart: mirrord as a subprocess on the image this instance leaves,
		// killed under a writer and re-executed.
		sv.s.Close()
		ms, gone, err := e.killCycles(bin, sv.cfg.MediaPath, stored, firstKey, e.restarts, &out.tally)
		if err != nil {
			return nil, err
		}
		restarts = append(restarts, ms...)
		lost += gone
	}
	out.tally.add(all.tally)
	em.emit("setup_s", median(setups))
	e.printf("  setup_s: %d set-ups %.3f; the median reported\n", len(setups), setups)
	if err := emitTimed(e, em, all.kops, all.winHist); err != nil {
		return nil, err
	}
	for k, h := range all.kinds {
		if h.Count() > 0 {
			e.printf("  %-6s p50 %.1f us  p99 %.1f us  (%d requests, every window)\n", kindNames[k], us(h.Percentile(50)), us(h.Percentile(99)), h.Count())
		}
	}
	if mutations == 0 {
		return nil, fmt.Errorf("%s: no mutation ran in the measured windows", sh.name)
	}
	em.emit("fences_per_mutation", float64(fences)/float64(mutations))
	em.emit("flushes_per_mutation", float64(flushes)/float64(mutations))
	e.printf("  server: %d mutations, %.2f frames per drain batch, %d replays\n", mutations, float64(ops)/float64(batches), replays)
	em.emit("space_bytes_per_key", space)
	em.emit("restart_ms", fastest(restarts))
	e.printf("  restart_ms: exec to first GET of %d incarnations %.0f; the fastest reported\n", len(restarts), restarts)
	out.check("every incarnation serves exactly the acknowledged keys", lost == 0 && out.failed == 0,
		fmt.Sprintf("%d kills, %d acknowledged keys lost", e.setups*e.restarts, lost))
	return out, nil
}
