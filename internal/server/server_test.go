package server

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mirror/internal/engine"
	"mirror/internal/rt"
	"mirror/internal/wire"
)

func durableKinds() []engine.Kind {
	return []engine.Kind{engine.Izraelevitz, engine.NVTraverse, engine.MirrorDRAM, engine.MirrorNVMM}
}

// startServer builds and listens a server on a loopback port.
func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func dial(t *testing.T, s *Server, id uint32) *Client {
	t.Helper()
	c, err := Dial(s.Addr().String(), id)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestNewRejectsRingBeyondBits pins the ring bound: a drain's verdict line
// carries the results of at most the 63 seqs below its own, so a ring
// deeper than engine.MaxDetectRing is refused with an error. So is a device
// too small for its own layout.
func TestNewRejectsRingBeyondBits(t *testing.T) {
	for _, cfg := range []Config{
		{Kind: engine.MirrorDRAM, Words: 1 << 16, Ring: engine.MaxDetectRing + 1},
		{Kind: engine.MirrorDRAM, Words: 1000},
	} {
		if s, err := New(cfg); err == nil {
			s.Close()
			t.Errorf("%+v accepted", cfg)
		}
	}
}

// TestServeBasicOps drives the full op set through one client on every
// durable engine.
func TestServeBasicOps(t *testing.T) {
	for _, kind := range durableKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			s := startServer(t, Config{Kind: kind, Workers: 2})
			c := dial(t, s, 3)

			if ok, err := c.Insert(10, 100); err != nil || !ok {
				t.Fatalf("insert: %v %v", ok, err)
			}
			if ok, _ := c.Insert(10, 100); ok {
				t.Fatal("duplicate insert succeeded")
			}
			if v, ok, _ := c.Get(10); !ok || v != 100 {
				t.Fatalf("get = %d,%v want 100,true", v, ok)
			}
			if ok, _ := c.Delete(10); !ok {
				t.Fatal("delete failed")
			}
			if _, ok, _ := c.Get(10); ok {
				t.Fatal("get after delete")
			}
			if err := c.Enqueue(7); err != nil {
				t.Fatal(err)
			}
			if err := c.Enqueue(8); err != nil {
				t.Fatal(err)
			}
			if v, ok, _ := c.Dequeue(); !ok || v != 7 {
				t.Fatalf("dequeue = %d,%v want 7,true", v, ok)
			}
			if v, ok, _ := c.Dequeue(); !ok || v != 8 {
				t.Fatalf("dequeue = %d,%v want 8,true", v, ok)
			}
			if _, ok, _ := c.Dequeue(); ok {
				t.Fatal("dequeue on empty queue succeeded")
			}
		})
	}
}

// TestServeConcurrentClients hammers the batcher from many clients at once
// and checks global accounting: every acknowledged enqueue is eventually
// dequeued or still queued, and per-client inserts are all visible.
func TestServeConcurrentClients(t *testing.T) {
	s := startServer(t, Config{Kind: engine.MirrorDRAM, Workers: 3, Clients: 16})
	const clients, opsEach = 8, 200
	var wg sync.WaitGroup
	var enqAcks, deqAcks [clients]uint64
	errs := make(chan error, clients)
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := Dial(s.Addr().String(), uint32(id))
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < opsEach; i++ {
				key := uint64(id+1)<<32 | uint64(i+1)
				if ok, err := c.Insert(key, key+1); err != nil || !ok {
					errs <- fmt.Errorf("client %d insert %d: %v %v", id, i, ok, err)
					return
				}
				if err := c.Enqueue(key); err != nil {
					errs <- err
					return
				}
				enqAcks[id]++
				if v, ok, err := c.Dequeue(); err != nil {
					errs <- err
					return
				} else if ok && v == 0 {
					errs <- fmt.Errorf("dequeued zero value")
					return
				} else if ok {
					deqAcks[id]++
				}
			}
			errs <- nil
		}(id)
	}
	wg.Wait()
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	// All inserts visible.
	c := dial(t, s, clients)
	for id := 0; id < clients; id++ {
		for i := 0; i < opsEach; i++ {
			key := uint64(id+1)<<32 | uint64(i+1)
			if v, ok, err := c.Get(key); err != nil || !ok || v != key+1 {
				t.Fatalf("get %d = %d,%v,%v", key, v, ok, err)
			}
		}
	}
	// Queue conservation: acknowledged enqueues minus acknowledged dequeues
	// equals what remains.
	var enq, deq uint64
	for id := 0; id < clients; id++ {
		enq += enqAcks[id]
		deq += deqAcks[id]
	}
	remaining := uint64(0)
	for {
		_, ok, err := c.Dequeue()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		remaining++
	}
	if enq != deq+remaining {
		t.Fatalf("queue leak: %d enqueued, %d dequeued + %d remaining", enq, deq, remaining)
	}
	if st := s.Stats(); st.Batches == 0 || st.Mutations == 0 {
		t.Fatalf("stats not accounted: %+v", st)
	}
}

// TestServeReplayIsExactlyOnce re-sends an acknowledged frame and checks the
// server answers from the descriptor instead of re-running the operation.
func TestServeReplayIsExactlyOnce(t *testing.T) {
	s := startServer(t, Config{Kind: engine.MirrorDRAM})
	c := dial(t, s, 1)
	if ok, err := c.Insert(5, 50); err != nil || !ok {
		t.Fatal(ok, err)
	}
	seq := c.Seq()
	before := s.Stats()
	r, err := c.Replay(wire.OpInsert, seq, 5, 50)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Result || !r.Known || r.Verdict != uint8(engine.Committed) {
		t.Fatalf("replay response %+v, want known committed true", r)
	}
	after := s.Stats()
	if after.Mutations != before.Mutations {
		t.Fatal("replay re-ran the operation body")
	}
	if after.Replays != before.Replays+1 {
		t.Fatalf("replay not accounted: %+v -> %+v", before, after)
	}
	// A replayed enqueue must not duplicate the element.
	if err := c.Enqueue(77); err != nil {
		t.Fatal(err)
	}
	eseq := c.Seq()
	if _, err := c.Replay(wire.OpEnqueue, eseq, 0, 77); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := c.Dequeue(); !ok || v != 77 {
		t.Fatalf("dequeue = %d,%v", v, ok)
	}
	if _, ok, _ := c.Dequeue(); ok {
		t.Fatal("replayed enqueue duplicated the element")
	}
}

// TestServeDetect checks the DETECT answer for committed, unknown-seq, and
// never-issued operations.
func TestServeDetect(t *testing.T) {
	s := startServer(t, Config{Kind: engine.MirrorNVMM})
	c := dial(t, s, 2)
	if ok, err := c.Insert(9, 90); err != nil || !ok {
		t.Fatal(ok, err)
	}
	r, err := c.Detect(c.Seq())
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict != uint8(engine.Committed) || !r.Known || !r.Result {
		t.Fatalf("detect committed op: %+v", r)
	}
	if r, _ = c.Detect(c.Seq() + 5); r.Verdict != uint8(engine.NotCommitted) {
		t.Fatalf("detect future seq: %+v", r)
	}
}

// TestServeErrorFrames checks malformed frames produce an error response
// and a closed connection, and that a fresh connection still works. Each bad
// frame follows a HELLO and three INSERTs in the same write: the terminal
// error must leave after the four responses those frames earned, and the
// connection close only after it — otherwise a pipelining client would pin
// the error on its oldest frame and lose the acknowledgements of frames that
// committed.
func TestServeErrorFrames(t *testing.T) {
	s := startServer(t, Config{Kind: engine.MirrorDRAM, Clients: 4})
	var seq uint64
	for round := 0; round < 10; round++ {
		for name, frame := range map[string][]byte{
			"bad op":        wire.AppendRequest(nil, wire.Request{Op: 99, Client: 1, Seq: 1}),
			"client range":  wire.AppendRequest(nil, wire.Request{Op: wire.OpGet, Client: 7}),
			"huge length":   binary.LittleEndian.AppendUint32(nil, 1<<20),
			"short payload": append(binary.LittleEndian.AppendUint32(nil, 5), 1, 2, 3, 4, 5),
		} {
			nc, err := net.Dial("tcp", s.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			b := wire.AppendRequest(nil, wire.Request{Op: wire.OpHello, Client: 1, Val: 8})
			for i := 0; i < 3; i++ {
				seq++
				b = wire.AppendRequest(b, wire.Request{Op: wire.OpInsert, Client: 1, Seq: seq, Key: seq, Val: seq})
			}
			if _, err := nc.Write(append(b, frame...)); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 4; i++ {
				if resp, err := wire.ReadResponse(nc, nil); err != nil || resp.Status != wire.StatusOK || !resp.Result {
					t.Fatalf("%s: response %d = %+v, %v; want the OK its frame earned", name, i, resp, err)
				}
			}
			if resp, err := wire.ReadResponse(nc, nil); err != nil || resp.Status != wire.StatusError {
				t.Fatalf("%s: response %+v, %v; want an error", name, resp, err)
			}
			// The connection is terminal after a framing error.
			if _, err := wire.ReadResponse(nc, nil); err == nil {
				t.Fatalf("%s: connection still open after error response", name)
			}
			nc.Close()
		}
	}
	// The server survives all of that.
	c := dial(t, s, 1)
	c.SetSeq(seq)
	if ok, err := c.Insert(1<<40, 2); err != nil || !ok {
		t.Fatal(ok, err)
	}
}

// TestServeAttachRestart writes through one server incarnation, closes it,
// and attaches a second over the same media file: data, queue contents, and
// descriptor state must all survive, on every durable engine.
func TestServeAttachRestart(t *testing.T) {
	for _, kind := range durableKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			media := filepath.Join(t.TempDir(), "media")
			cfg := Config{Kind: kind, MediaPath: media, Words: 1 << 18, Ring: 4}
			s1 := startServer(t, cfg)
			if s1.Attached() {
				t.Fatal("fresh server claims attach")
			}
			c := dial(t, s1, 4)
			for i := uint64(1); i <= 50; i++ {
				if ok, err := c.Insert(i, i*10); err != nil || !ok {
					t.Fatal(i, ok, err)
				}
			}
			if err := c.Enqueue(123); err != nil {
				t.Fatal(err)
			}
			lastSeq := c.Seq()
			c.Close()
			s1.Close()

			s2 := startServer(t, cfg)
			if !s2.Attached() {
				t.Fatal("second incarnation did not attach")
			}
			c2 := dial(t, s2, 4)
			c2.SetSeq(lastSeq)
			for i := uint64(1); i <= 50; i++ {
				if v, ok, err := c2.Get(i); err != nil || !ok || v != i*10 {
					t.Fatalf("get %d after attach = %d,%v,%v", i, v, ok, err)
				}
			}
			// The descriptor region survived: the last pre-restart op reads
			// Committed across incarnations.
			r, err := c2.Detect(lastSeq)
			if err != nil {
				t.Fatal(err)
			}
			if r.Verdict != uint8(engine.Committed) {
				t.Fatalf("detect across restart: %+v", r)
			}
			if v, ok, _ := c2.Dequeue(); !ok || v != 123 {
				t.Fatalf("queue after attach = %d,%v want 123", v, ok)
			}
			// And the engine keeps serving new mutations.
			if ok, err := c2.Insert(1000, 1); err != nil || !ok {
				t.Fatal(ok, err)
			}
		})
	}
}

// TestServeMetaMismatch refuses to attach an image written under different
// geometry.
func TestServeMetaMismatch(t *testing.T) {
	media := filepath.Join(t.TempDir(), "media")
	s1, err := New(Config{Kind: engine.MirrorDRAM, MediaPath: media, Words: 1 << 18})
	if err != nil {
		t.Fatal(err)
	}
	s1.Close()
	if _, err := New(Config{Kind: engine.MirrorDRAM, MediaPath: media, Words: 1 << 19}); err == nil {
		t.Fatal("attach with different Words succeeded")
	}
	if _, err := New(Config{Kind: engine.Izraelevitz, MediaPath: media, Words: 1 << 18}); err == nil {
		t.Fatal("attach with different Kind succeeded")
	}

	// The sidecar's "combine" key, both directions: it is still written
	// (false), so the sidecars of existing images and of this build are the
	// same bytes and attach; an image written by an older `mirrord -combine`
	// holds state this build cannot interpret and is refused. So is one
	// whose sidecar has no "layout" key: it was written when every node
	// field was a cell, and this build would misread its nodes. A layout-1
	// sidecar is refused by the same exact-match rule: layout 2 added tagged
	// skip-list marks, which a layout-1 build would misread, and so is a
	// layout-2 one: layout 3 added tagged skip-list heights.
	written, err := os.ReadFile(rt.SidecarPath(media))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, sidecar string
		attach        bool
	}{
		{"as written", `{"kind":0,"words":262144,"root_fields":8,"ring":8,"clients":64,"combine":false,"layout":3,"roots":[{"kind":"skiplist","field":0},{"kind":"queue","field":4}]}`, true},
		{"written with combining on", `{"kind":0,"words":262144,"root_fields":8,"ring":8,"clients":64,"combine":true,"layout":3,"roots":[{"kind":"skiplist","field":0},{"kind":"queue","field":4}]}`, false},
		{"written before tagged heights", `{"kind":0,"words":262144,"root_fields":8,"ring":8,"clients":64,"combine":false,"layout":2,"roots":[{"kind":"skiplist","field":0},{"kind":"queue","field":4}]}`, false},
		{"written before tagged marks", `{"kind":0,"words":262144,"root_fields":8,"ring":8,"clients":64,"combine":false,"layout":1,"roots":[{"kind":"skiplist","field":0},{"kind":"queue","field":4}]}`, false},
		{"written before plain words", `{"kind":0,"words":262144,"root_fields":8,"ring":8,"clients":64,"combine":false,"roots":[{"kind":"skiplist","field":0},{"kind":"queue","field":4}]}`, false},
	} {
		if tc.attach && tc.sidecar != string(written) {
			t.Fatalf("%s: this build writes the sidecar %s, want %s", tc.name, written, tc.sidecar)
		}
		if err := os.WriteFile(rt.SidecarPath(media), []byte(tc.sidecar), 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{Kind: engine.MirrorDRAM, MediaPath: media, Words: 1 << 18})
		if err == nil {
			defer s.Close()
		}
		switch {
		case tc.attach && (err != nil || !s.Attached()):
			t.Fatalf("%s: attach failed: %v", tc.name, err)
		case !tc.attach && (err == nil || !strings.Contains(err.Error(), "different configuration")):
			t.Fatalf("%s: error %v, want the different-configuration refusal", tc.name, err)
		}
	}
}

// TestServeBatchingSavesFences pins what closes a batch: frames that reach
// a worker together are committed by one drain, and the reader's buffer
// running dry — or MaxBatch — ends the batch; no clock is involved. One P makes "together"
// exact: the connection's reader runs a whole segment before its client can
// send again. The measured inserts find their keys, put there by a first
// round: an insert that takes effect is acknowledged on its own install's
// fence and has no verdict fence to share (engine detect.go "Evidence
// instead of a verdict"), while one without effect keeps its verdict.
func TestServeBatchingSavesFences(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const frames = 8
	// run sends eight inserts at the given depth, plus four GETs when
	// synchronous, after a first round of the same inserts, and returns
	// the counter deltas of the second round.
	run := func(cfg Config, depth int) (batches, ops uint64, fencesPerMutation float64) {
		cfg.Kind, cfg.Workers = engine.MirrorDRAM, 1
		s := startServer(t, cfg)
		c := dial(t, s, 1)
		if w, err := c.SetPipeline(depth); err != nil || w != depth {
			t.Fatalf("SetPipeline(%d) = %d, %v", depth, w, err)
		}
		for k := uint64(1); k <= frames; k++ {
			if _, err := c.Submit(wire.OpInsert, k, k, 0); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.Drain(); err != nil {
			t.Fatal(err)
		}
		before := s.Stats()
		var acked int
		for k := uint64(1); k <= frames; k++ {
			done, err := c.Submit(wire.OpInsert, k, k, 0)
			if err != nil {
				t.Fatal(err)
			}
			acked += len(done)
		}
		done, err := c.Drain()
		if err != nil || acked+len(done) != frames {
			t.Fatalf("%d of %d inserts acknowledged, err %v", acked+len(done), frames, err)
		}
		if depth == 1 {
			for k := uint64(1); k <= 4; k++ {
				if v, ok, err := c.Get(k); err != nil || !ok || v != k {
					t.Fatalf("get %d = %d,%v,%v", k, v, ok, err)
				}
			}
		}
		after := s.Stats()
		if after.Mutations-before.Mutations != frames {
			t.Fatalf("%d mutations ran, want %d", after.Mutations-before.Mutations, frames)
		}
		return after.Batches - before.Batches, after.Ops - before.Ops,
			float64(after.Fences-before.Fences) / frames
	}

	syncBatches, syncOps, syncFences := run(Config{}, 1)
	if syncOps != frames+4 || syncBatches != syncOps {
		t.Fatalf("depth 1: %d batches for %d frames, want one batch per frame (GETs included)", syncBatches, syncOps)
	}
	batches, _, fences := run(Config{}, frames)
	if batches != 1 {
		t.Fatalf("depth %d: %d batches, want 1", frames, batches)
	}
	t.Logf("fences/mutation: depth %d %.2f, depth 1 %.2f", frames, fences, syncFences)
	if fences >= syncFences {
		t.Fatalf("batching saved nothing: %.2f >= %.2f fences/mutation", fences, syncFences)
	}
	if batches, _, _ := run(Config{MaxBatch: 1}, frames); batches != frames {
		t.Fatalf("MaxBatch 1: %d batches, want %d", batches, frames)
	}
	if batches, _, _ := run(Config{MaxBatch: 4}, frames); batches != 2 {
		t.Fatalf("MaxBatch 4: %d batches, want 2", batches)
	}
}

// TestServeScanRMW drives the new ordered-set ops end to end: SCAN returns
// ascending present pairs from the start key up to the limit, and RMW
// compare-and-sets a value exactly once.
func TestServeScanRMW(t *testing.T) {
	s := startServer(t, Config{Kind: engine.MirrorDRAM, Workers: 2})
	c := dial(t, s, 1)
	for k := uint64(1); k <= 40; k++ {
		if ok, err := c.Insert(k, k*10); err != nil || !ok {
			t.Fatalf("insert %d: %v %v", k, ok, err)
		}
	}
	pairs, err := c.Scan(5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 10 {
		t.Fatalf("scan returned %d pairs, want 10", len(pairs))
	}
	for i, kv := range pairs {
		want := uint64(5 + i)
		if kv.Key != want || kv.Val != want*10 {
			t.Fatalf("pair %d = %+v, want key %d val %d", i, kv, want, want*10)
		}
	}
	// A scan past the top is legal and empty.
	if pairs, err = c.Scan(1000, 4); err != nil || len(pairs) != 0 {
		t.Fatalf("empty scan = %v pairs, err %v", len(pairs), err)
	}
	// RMW: stale expect misses, correct expect swaps, replay is exact-once.
	if ok, err := c.RMW(7, 999, 1); err != nil || ok {
		t.Fatalf("stale RMW = %v %v, want false", ok, err)
	}
	if ok, err := c.RMW(7, 70, 71); err != nil || !ok {
		t.Fatalf("RMW = %v %v, want true", ok, err)
	}
	if v, ok, _ := c.Get(7); !ok || v != 71 {
		t.Fatalf("value after RMW = %d,%v want 71,true", v, ok)
	}
	seq := c.Seq()
	resp, err := c.Do(wire.Request{Op: wire.OpRMW, Client: c.ID(), Seq: seq, Key: 7, Val: 70, Arg: 71})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Result || resp.Verdict != uint8(engine.Committed) {
		t.Fatalf("RMW replay = %+v, want committed true", resp)
	}
	if v, _, _ := c.Get(7); v != 71 {
		t.Fatalf("value after RMW replay = %d, want 71 (double apply!)", v)
	}
	if s.Stats().Scans != 2 {
		t.Fatalf("scan counter = %d, want 2", s.Stats().Scans)
	}
}

// TestServePipelined exercises the HELLO handshake and a full pipelined
// window on every durable engine: depth-8 submits with FIFO responses,
// interleaved sync ops (which drain first), and a depth grant clamped to
// the server ring.
func TestServePipelined(t *testing.T) {
	for _, kind := range durableKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			s := startServer(t, Config{Kind: kind, Workers: 2, Ring: 8})
			c := dial(t, s, 2)
			if w, err := c.SetPipeline(64); err != nil || w != 8 {
				t.Fatalf("SetPipeline(64) = %d, %v, want 8 (ring clamp)", w, err)
			}
			var got []wire.Response
			for k := uint64(1); k <= 30; k++ {
				done, err := c.Submit(wire.OpInsert, k, k*7, 0)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, done...)
			}
			done, err := c.Drain()
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, done...)
			if len(got) != 30 {
				t.Fatalf("%d responses, want 30", len(got))
			}
			for i, r := range got {
				if !r.Result || !r.Known {
					t.Fatalf("insert %d response %+v, want known true", i+1, r)
				}
			}
			// Sync ops drain implicitly and observe everything submitted.
			for k := uint64(1); k <= 30; k++ {
				if _, err := c.Submit(wire.OpDelete, k, 0, 0); err != nil {
					t.Fatal(err)
				}
			}
			if v, ok, err := c.Get(5); err != nil || ok || v != 0 {
				t.Fatalf("get after pipelined deletes = %d,%v,%v want absent", v, ok, err)
			}
			if n := len(c.InFlight()); n != 0 {
				t.Fatalf("%d frames in flight after sync Get, want 0", n)
			}
		})
	}
}

// TestServeSharedWorker shares one worker between three connections
// pipelining at depth 8 and two synchronous ones, on disjoint keys, so that
// five readers contend for its token and a batch one reader leaves open may
// be released by another. Every connection's responses must come back in
// issue order with the results its own model predicts, Close must return
// (no staged response stranded), and DETECT must read Committed with the
// recorded result for every seq of each client's last window.
func TestServeSharedWorker(t *testing.T) {
	const pipes, syncs, ops, keys, ring = 3, 2, 2000, 16, 8
	s := startServer(t, Config{Kind: engine.MirrorDRAM, Workers: 1, Clients: 8, Ring: ring})
	type issued struct {
		seq  uint64
		want wire.Response
	}
	last := make([][]issued, pipes+syncs) // each client's newest ring mutations
	errs := make(chan error, pipes+syncs)
	var wg sync.WaitGroup
	for i := 0; i < pipes+syncs; i++ {
		depth := 1
		if i < pipes {
			depth = ring
		}
		c := dial(t, s, uint32(i+1))
		if w, err := c.SetPipeline(depth); err != nil || w != depth {
			t.Fatalf("SetPipeline(%d) = %d, %v", depth, w, err)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(i), 1))
			model := map[uint64]uint64{}
			var pending []wire.Response // predicted responses of the frames in flight, oldest first
			check := func(done []wire.Response, err error) error {
				if err != nil {
					return err
				}
				for _, r := range done {
					want := pending[0]
					pending = pending[1:]
					if r.Status != wire.StatusOK || r.Result != want.Result || r.Rval != want.Rval || r.Verdict != want.Verdict {
						return fmt.Errorf("client %d: response %+v, want %+v", i+1, r, want)
					}
				}
				return nil
			}
			base := uint64(i+1) << 32
			for n := uint64(1); n <= ops; n++ {
				k := base + 1 + rng.Uint64N(keys)
				v, present := model[k]
				op, val, arg := wire.OpGet, uint64(0), uint64(0)
				want := wire.Response{Result: present, Rval: v}
				switch rng.IntN(4) {
				case 1:
					op, val = wire.OpInsert, base|n
					want = wire.Response{Result: !present}
					if !present {
						model[k] = val
					}
				case 2:
					op, want = wire.OpDelete, wire.Response{Result: present}
					delete(model, k)
				case 3:
					op, val, arg = wire.OpRMW, v, base|n
					want = wire.Response{Result: present}
					if present {
						model[k] = arg
					}
				}
				if op.Mutating() {
					want.Verdict = uint8(engine.Committed)
					last[i] = append(last[i], issued{seq: c.Seq() + 1, want: want})
					if len(last[i]) > ring {
						last[i] = last[i][1:]
					}
				}
				pending = append(pending, want)
				if err := check(c.Submit(op, k, val, arg)); err != nil {
					errs <- err
					return
				}
			}
			errs <- check(c.Drain())
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, window := range last {
		c := dial(t, s, uint32(i+1))
		for _, m := range window {
			r, err := c.Detect(m.seq)
			if err != nil || r.Verdict != uint8(engine.Committed) || !r.Known || r.Result != m.want.Result {
				t.Fatalf("client %d: DETECT seq %d = %+v, %v; want Committed with result %v", i+1, m.seq, r, err, m.want.Result)
			}
		}
	}
	closed := make(chan error)
	go func() { closed <- s.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return")
	}
}

// discardConn is a connection whose peer reads everything instantly.
type discardConn struct{ net.Conn }

func (discardConn) Write(b []byte) (int, error) { return len(b), nil }

// TestWorkerSteadyStateAllocs pins the worker's path — execute a frame on
// the reader, drain, encode, gather, write — at zero Go allocations per
// point frame once its buffers have grown.
func TestWorkerSteadyStateAllocs(t *testing.T) {
	s, err := New(Config{Kind: engine.MirrorDRAM, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w, cn := s.workers[0], &conn{nc: discardConn{}}
	rd := bufio.NewReader(strings.NewReader("")) // holds no further frame: run releases
	var seq uint64
	frame := func(op wire.Op, key uint64) {
		r := wire.Request{Op: op, Client: 1, Key: key, Val: key}
		if op.Mutating() {
			seq++
			r.Seq = seq
		}
		if w.run(cn, r, rd) || len(w.staged) != 0 {
			t.Fatal("a frame with none behind it did not run to its release")
		}
	}
	frame(wire.OpInsert, 1)
	for name, body := range map[string]func(){
		"GET":           func() { frame(wire.OpGet, 1) },
		"INSERT+DELETE": func() { frame(wire.OpInsert, 2); frame(wire.OpDelete, 2) },
	} {
		if n := testing.AllocsPerRun(200, body); n != 0 {
			t.Errorf("%s: %v allocations per run, want 0", name, n)
		}
	}
}
