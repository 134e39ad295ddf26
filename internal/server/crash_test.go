package server

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"mirror/internal/engine"
	"mirror/internal/wire"
)

// The crash battery re-executes this test binary as the server process:
// TestMain sees the env var and runs a mirrord-equivalent server instead of
// the tests, so the parent can SIGKILL a real OS process mid-load and
// attach a second incarnation over the same media file.
func TestMain(m *testing.M) {
	if os.Getenv("MIRRORD_TEST_SERVER") != "" {
		helperMain()
		return
	}
	os.Exit(m.Run())
}

func helperMain() {
	kind, _ := strconv.Atoi(os.Getenv("MIRRORD_KIND"))
	s, err := New(Config{
		Kind:      engine.Kind(kind),
		Words:     1 << 21,
		Clients:   32,
		Workers:   2,
		MediaPath: os.Getenv("MIRRORD_MEDIA"),
	})
	if err != nil {
		fmt.Println("helper error:", err)
		os.Exit(1)
	}
	if err := s.Listen("127.0.0.1:0"); err != nil {
		fmt.Println("helper error:", err)
		os.Exit(1)
	}
	mode := "fresh"
	if s.Attached() {
		mode = "attached"
	}
	fmt.Printf("serving %s on %s\n", mode, s.Addr())
	select {} // run until killed
}

// helperProc is one server subprocess.
type helperProc struct {
	cmd  *exec.Cmd
	addr string
	mode string
}

func startHelper(t *testing.T, kind engine.Kind, media string) *helperProc {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"MIRRORD_TEST_SERVER=1",
		"MIRRORD_KIND="+strconv.Itoa(int(kind)),
		"MIRRORD_MEDIA="+media,
	)
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	lines := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		if sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	select {
	case line, ok := <-lines:
		if !ok {
			t.Fatal("helper exited before announcing readiness")
		}
		fields := strings.Fields(line) // "serving <mode> on <addr>"
		if len(fields) != 4 || fields[0] != "serving" {
			t.Fatalf("unexpected helper line %q", line)
		}
		return &helperProc{cmd: cmd, addr: fields[3], mode: fields[1]}
	case <-time.After(20 * time.Second):
		t.Fatal("helper did not come up")
	}
	panic("unreachable")
}

func (h *helperProc) kill(t *testing.T) {
	t.Helper()
	if err := h.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	h.cmd.Wait()
}

// opRec journals one mutating operation a load client issued.
type opRec struct {
	op       wire.Op
	seq      uint64
	key, val uint64
	result   bool
	rval     uint64
	// resolved marks an operation whose ack was lost to the kill and whose
	// outcome came from DETECT or a replay; its result is exempt from the
	// model's prediction check (a replayed took-effect insert answers
	// false), but its state effect is exact.
	resolved bool
	// blind marks a resolved dequeue whose removed value is unknowable
	// (verdict Unknown, or Committed with the recorded rval overwritten);
	// it charges the conservation check's allowance instead.
	blind bool
}

// loadClient is one client id's journal across the kill.
type loadClient struct {
	id       uint32
	ops      []opRec // acknowledged (or resolved) in seq order
	inflight *opRec  // sent without an ack when the server died
	lastSeq  uint64
}

func (lc *loadClient) keyAt(i uint64) uint64 { return uint64(lc.id+1)<<32 | (i%64 + 1) }

// run drives random mutations until the connection dies (the kill) and
// journals every acknowledged operation.
func (lc *loadClient) run(addr string) error {
	c, err := Dial(addr, lc.id)
	if err != nil {
		return err
	}
	defer c.Close()
	state := uint64(lc.id)*0x9e3779b97f4a7c15 + 1
	var enqCounter uint64
	for i := uint64(0); ; i++ {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		rec := opRec{key: lc.keyAt(state)}
		switch {
		case state%100 < 35:
			rec.op, rec.val = wire.OpInsert, state|1
		case state%100 < 55:
			rec.op = wire.OpDelete
		case state%100 < 80:
			enqCounter++
			rec.op, rec.key, rec.val = wire.OpEnqueue, 0, uint64(lc.id+1)<<32|enqCounter
		default:
			rec.op, rec.key = wire.OpDequeue, 0
		}
		rec.seq = c.Seq() + 1
		lc.inflight = &rec
		lc.lastSeq = rec.seq
		resp, err := c.mutate(rec.op, rec.key, rec.val)
		if err != nil {
			return nil // the kill; rec stays in-flight
		}
		rec.result, rec.rval = resp.Result, resp.Rval
		lc.inflight = nil
		lc.ops = append(lc.ops, rec)
	}
}

// resolve reconnects after the restart and settles the in-flight operation
// through DETECT, replaying exactly the cases where replay is sound.
func (lc *loadClient) resolve(c *Client) error {
	c.SetSeq(lc.lastSeq)
	rec := lc.inflight
	if rec == nil {
		return nil
	}
	lc.inflight = nil
	d, err := c.Detect(rec.seq)
	if err != nil {
		return err
	}
	rec.resolved = true
	switch engine.Verdict(d.Verdict) {
	case engine.Committed:
		if d.Known {
			rec.result, rec.rval = d.Result, d.Rval
		} else if rec.op == wire.OpDequeue {
			rec.result, rec.blind = true, true
		} else {
			rec.result = true
		}
	case engine.NotCommitted:
		// Never took effect: the replay is the first execution.
		resp, err := c.Replay(rec.op, rec.seq, rec.key, rec.val)
		if err != nil {
			return err
		}
		rec.result, rec.rval = resp.Result, resp.Rval
	case engine.Unknown:
		switch rec.op {
		case wire.OpInsert, wire.OpDelete:
			// Idempotent in a per-client keyspace: re-execution converges
			// on the same state whichever fate the cut execution had.
			resp, err := c.Replay(rec.op, rec.seq, rec.key, rec.val)
			if err != nil {
				return err
			}
			rec.result, rec.rval = resp.Result, resp.Rval
		case wire.OpEnqueue:
			// May or may not be in the queue; the conservation check
			// carries it in the maybe set.
			rec.result = true
			rec.blind = true
		case wire.OpDequeue:
			// May have removed an unknowable value.
			rec.result, rec.blind = true, true
		}
	}
	lc.ops = append(lc.ops, *rec)
	return nil
}

// TestCrashKillBattery is the end-to-end kill -9 test: a server subprocess
// under mixed load is killed mid-flight, restarted over the same media
// file, and every client resolves its cut operation while the recovered
// state passes the set-model and queue-conservation invariants — on all
// four durable engines.
func TestCrashKillBattery(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess battery")
	}
	cases := []struct {
		name     string
		kind     engine.Kind
		pipeline bool
	}{
		{"Izraelevitz", engine.Izraelevitz, false},
		{"NVTraverse", engine.NVTraverse, false},
		{"Mirror", engine.MirrorDRAM, false},
		{"MirrorNVMM", engine.MirrorNVMM, false},
		{"Mirror/pipelined", engine.MirrorDRAM, true},
		{"MirrorNVMM/pipelined", engine.MirrorNVMM, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.pipeline {
				runCrashKillPipelined(t, tc.kind)
			} else {
				runCrashKill(t, tc.kind)
			}
		})
	}
}

func runCrashKill(t *testing.T, kind engine.Kind) {
	media := filepath.Join(t.TempDir(), "media")
	h1 := startHelper(t, kind, media)
	if h1.mode != "fresh" {
		t.Fatalf("first incarnation mode %q", h1.mode)
	}

	const nClients = 8
	clients := make([]*loadClient, nClients)
	var wg sync.WaitGroup
	errs := make(chan error, nClients)
	for i := range clients {
		clients[i] = &loadClient{id: uint32(i)}
		wg.Add(1)
		go func(lc *loadClient) {
			defer wg.Done()
			errs <- lc.run(h1.addr)
		}(clients[i])
	}
	time.Sleep(150 * time.Millisecond) // let load build up, then pull the plug
	h1.kill(t)
	wg.Wait()
	for range clients {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	var total, inflight int
	for _, lc := range clients {
		total += len(lc.ops)
		if lc.inflight != nil {
			inflight++
		}
	}
	if total < nClients*10 {
		t.Fatalf("only %d acknowledged ops before the kill; load never ramped", total)
	}
	t.Logf("killed with %d acknowledged ops, %d clients in flight", total, inflight)

	// Second incarnation over the same image.
	h2 := startHelper(t, kind, media)
	if h2.mode != "attached" {
		t.Fatalf("second incarnation mode %q, want attached", h2.mode)
	}

	// Resolve every cut operation.
	conns := make([]*Client, nClients)
	for i, lc := range clients {
		c, err := Dial(h2.addr, lc.id)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		conns[i] = c
		if err := lc.resolve(c); err != nil {
			t.Fatalf("client %d resolve: %v", lc.id, err)
		}
	}

	// Set invariant: replay each client's journal against an exact model
	// (client keyspaces are disjoint), checking every acknowledged result
	// was truthful, then compare the model against the served state.
	for i, lc := range clients {
		checkSetModel(t, lc.id, lc.ops, conns[i])
	}

	// Queue conservation: every certainly-enqueued value is dequeued,
	// still queued, or covered by a blind-dequeue allowance; nothing is
	// served twice and nothing appears from thin air.
	certain := map[uint64]bool{}
	maybe := map[uint64]bool{}
	taken := map[uint64]bool{}
	blindDeqs := 0
	for _, lc := range clients {
		for _, rec := range lc.ops {
			switch rec.op {
			case wire.OpEnqueue:
				if rec.blind {
					maybe[rec.val] = true
				} else {
					certain[rec.val] = true
				}
			case wire.OpDequeue:
				if rec.blind {
					blindDeqs++
				} else if rec.result {
					if taken[rec.rval] {
						t.Fatalf("value %d dequeued twice", rec.rval)
					}
					taken[rec.rval] = true
				}
			}
		}
	}
	drainer, err := Dial(h2.addr, nClients)
	if err != nil {
		t.Fatal(err)
	}
	defer drainer.Close()
	for {
		v, ok, err := drainer.Dequeue()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if taken[v] {
			t.Fatalf("value %d both dequeued and still queued", v)
		}
		taken[v] = true
	}
	missing := 0
	for v := range certain {
		if !taken[v] {
			missing++
		}
	}
	if missing > blindDeqs {
		t.Fatalf("%d acknowledged enqueues vanished, only %d blind dequeues to account for them",
			missing, blindDeqs)
	}
	for v := range taken {
		if !certain[v] && !maybe[v] {
			t.Fatalf("value %d came out of the queue but was never enqueued", v)
		}
	}
}

// checkSetModel replays one client's journal against an exact model of its
// private keyspace, checking every acknowledged result was truthful, then
// compares the model against the served state.
func checkSetModel(t *testing.T, id uint32, ops []opRec, c *Client) {
	t.Helper()
	model := map[uint64]uint64{}
	for _, rec := range ops {
		switch rec.op {
		case wire.OpInsert:
			_, present := model[rec.key]
			if !rec.resolved && rec.result == present {
				t.Fatalf("client %d seq %d: insert(%d) acked %v, model says %v",
					id, rec.seq, rec.key, rec.result, !present)
			}
			if !present {
				// A failed insert does not overwrite the held value.
				model[rec.key] = rec.val
			}
		case wire.OpDelete:
			_, present := model[rec.key]
			if !rec.resolved && rec.result != present {
				t.Fatalf("client %d seq %d: delete(%d) acked %v, model says %v",
					id, rec.seq, rec.key, rec.result, present)
			}
			delete(model, rec.key)
		}
	}
	for k := uint64(1); k <= 64; k++ {
		key := uint64(id+1)<<32 | k
		v, ok, err := c.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		wantV, want := model[key]
		if ok != want || (ok && v != wantV) {
			t.Fatalf("client %d key %d: served %d,%v; model %d,%v",
				id, key, v, ok, wantV, want)
		}
	}
}

// pipeClient is one pipelined client id's journal across the kill: up to a
// full window of eight mutating frames may be unacknowledged when the
// server dies, and every one of them must resolve through the descriptor
// ring.
type pipeClient struct {
	id      uint32
	burst   int // if nonzero, submit exactly this many frames and stop
	ops     []opRec
	pending []opRec // submitted, unacknowledged, ascending seq
}

func (pc *pipeClient) keyAt(state uint64) uint64 { return uint64(pc.id+1)<<32 | (state%64 + 1) }

// run drives pipelined inserts and deletes until the connection dies,
// journaling acknowledged frames as their responses come back in FIFO
// order. A burst client instead flushes a partial window and then sits on
// it, dying with a partially-filled descriptor ring it never read a single
// response from.
func (pc *pipeClient) run(addr string) error {
	c, err := Dial(addr, pc.id)
	if err != nil {
		return err
	}
	defer c.Close()
	w, err := c.SetPipeline(8)
	if err != nil {
		return err
	}
	if w != 8 {
		return fmt.Errorf("client %d: granted window %d, want 8", pc.id, w)
	}
	pop := func(done []wire.Response) {
		for _, r := range done {
			rec := pc.pending[0]
			pc.pending = pc.pending[1:]
			rec.result, rec.rval = r.Result, r.Rval
			pc.ops = append(pc.ops, rec)
		}
	}
	// cut checks, once the connection is dead, that the client's own
	// in-flight FIFO is exactly the journal's unacknowledged suffix: frames
	// it still held in its write buffer included, the frame whose Submit
	// failed (never registered, never journaled) excluded.
	cut := func() error {
		inflight := c.InFlight()
		if len(inflight) != len(pc.pending) {
			return fmt.Errorf("client %d: %d frames in flight, journal has %d unacknowledged", pc.id, len(inflight), len(pc.pending))
		}
		for i, req := range inflight {
			rec := opRec{op: req.Op, seq: req.Seq, key: req.Key, val: req.Val}
			if pc.pending[i] != rec {
				return fmt.Errorf("client %d: in-flight frame %d is %+v, journal has %+v", pc.id, i, rec, pc.pending[i])
			}
		}
		return nil
	}
	state := uint64(pc.id)*0x9e3779b97f4a7c15 + 1
	for i := 0; ; i++ {
		if pc.burst > 0 && i == pc.burst {
			c.wr.Flush()
			time.Sleep(600 * time.Millisecond) // outlives the kill
			return cut()
		}
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		rec := opRec{key: pc.keyAt(state), seq: c.Seq() + 1}
		if state%100 < 60 {
			rec.op, rec.val = wire.OpInsert, state|1
		} else {
			rec.op = wire.OpDelete
		}
		done, err := c.Submit(rec.op, rec.key, rec.val, 0)
		pop(done)
		if err != nil {
			return cut() // the kill
		}
		pc.pending = append(pc.pending, rec)
	}
}

// resolve reconnects after the restart and settles every in-flight frame
// through DETECT, in issue order. Ring detect must answer Committed for a
// prefix of the window: frames execute in per-client FIFO order, and any
// durable later verdict proves every earlier seq committed (the ring's
// sibling-verdict inference), so a committed seq can never follow an
// uncommitted one. The suffix after the prefix is provably uncommitted or
// unknown and is replayed in the original order, which converges for
// inserts and deletes in a private keyspace.
func (pc *pipeClient) resolve(c *Client) error {
	if n := len(pc.pending); n > 0 {
		c.SetSeq(pc.pending[n-1].seq)
	} else if n := len(pc.ops); n > 0 {
		c.SetSeq(pc.ops[n-1].seq)
	}
	prefix := true
	for _, rec := range pc.pending {
		d, err := c.Detect(rec.seq)
		if err != nil {
			return err
		}
		rec.resolved = true
		switch engine.Verdict(d.Verdict) {
		case engine.Committed:
			if !prefix {
				return fmt.Errorf("client %d: seq %d committed after an earlier uncommitted seq", pc.id, rec.seq)
			}
			if d.Known {
				rec.result, rec.rval = d.Result, d.Rval
			} else {
				rec.result = true
			}
		default: // NotCommitted or Unknown: replay, in order
			prefix = false
			resp, err := c.Replay(rec.op, rec.seq, rec.key, rec.val)
			if err != nil {
				return err
			}
			rec.result, rec.rval = resp.Result, resp.Rval
		}
		pc.ops = append(pc.ops, rec)
	}
	pc.pending = nil
	return nil
}

// runCrashKillPipelined is the pipelined half of the battery: clients
// negotiate a window-8 pipeline, the server is killed with whole windows
// in flight, and after the restart every in-flight seq resolves through
// the descriptor ring — including client 0's, which dies holding a
// partially-filled ring.
func runCrashKillPipelined(t *testing.T, kind engine.Kind) {
	media := filepath.Join(t.TempDir(), "media")
	h1 := startHelper(t, kind, media)
	if h1.mode != "fresh" {
		t.Fatalf("first incarnation mode %q", h1.mode)
	}

	const nClients = 6
	clients := make([]*pipeClient, nClients)
	var wg sync.WaitGroup
	errs := make(chan error, nClients)
	for i := range clients {
		clients[i] = &pipeClient{id: uint32(i)}
		if i == 0 {
			clients[i].burst = 3 // dies with a partially-filled ring
		}
		wg.Add(1)
		go func(pc *pipeClient) {
			defer wg.Done()
			errs <- pc.run(h1.addr)
		}(clients[i])
	}
	time.Sleep(150 * time.Millisecond) // let windows fill, then pull the plug
	h1.kill(t)
	wg.Wait()
	for range clients {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	var total, inflight, deepest int
	for _, pc := range clients {
		total += len(pc.ops)
		inflight += len(pc.pending)
		if len(pc.pending) > deepest {
			deepest = len(pc.pending)
		}
	}
	if total < 50 {
		t.Fatalf("only %d acknowledged ops before the kill; load never ramped", total)
	}
	if got := len(clients[0].pending); got != 3 {
		t.Fatalf("burst client died with %d frames in flight, want 3", got)
	}
	if deepest < 2 {
		t.Fatalf("no client died with a multi-entry ring (deepest window %d)", deepest)
	}
	t.Logf("killed with %d acknowledged ops, %d frames in flight (deepest window %d)",
		total, inflight, deepest)

	h2 := startHelper(t, kind, media)
	if h2.mode != "attached" {
		t.Fatalf("second incarnation mode %q, want attached", h2.mode)
	}

	for _, pc := range clients {
		c, err := Dial(h2.addr, pc.id)
		if err != nil {
			t.Fatal(err)
		}
		if err := pc.resolve(c); err != nil {
			c.Close()
			t.Fatalf("client %d resolve: %v", pc.id, err)
		}
		checkSetModel(t, pc.id, pc.ops, c)
		c.Close()
	}
}
