package server

import (
	"io"
	"net"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"mirror/internal/engine"
	"mirror/internal/wire"
)

// countingConn counts the writes that reach the socket.
type countingConn struct {
	net.Conn
	writes int
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.writes++
	return c.Conn.Write(b)
}

// TestClientFlushesWhenItWouldBlock pins the client half of group commit: a
// pipelined client writes only when it has nothing left to read, so a window
// answered in one segment is refilled in one write. One P makes the server
// answer each window in one segment (see TestServeBatchingSavesFences).
func TestClientFlushesWhenItWouldBlock(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := startServer(t, Config{Kind: engine.MirrorDRAM, Workers: 1})
	nc, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	cc := &countingConn{Conn: nc}
	c := newClient(cc, 1)
	defer c.Close()
	const depth, frames = 8, 800
	if w, err := c.SetPipeline(depth); err != nil || w != depth {
		t.Fatalf("SetPipeline(%d) = %d, %v", depth, w, err)
	}
	base, acked := cc.writes, 0
	check := func(done []wire.Response, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range done {
			if !r.Result || !r.Known {
				t.Fatalf("insert %d response %+v, want known true", acked+1, r)
			}
			acked++
		}
	}
	for k := uint64(1); k <= frames; k++ {
		check(c.Submit(wire.OpInsert, k, k*7, 0))
	}
	check(c.Drain())
	if acked != frames {
		t.Fatalf("%d responses, want %d", acked, frames)
	}
	if w := cc.writes - base; w > frames/depth+2 {
		t.Fatalf("%d frames at depth %d cost %d writes, want at most %d", frames, depth, w, frames/depth+2)
	}

	// A synchronous exchange behind a frame that is still only buffered
	// observes program order.
	base = cc.writes
	check(c.Submit(wire.OpInsert, frames+1, 5, 0))
	if cc.writes != base {
		t.Fatal("Submit wrote with room left in the window")
	}
	if v, ok, err := c.Get(frames + 1); err != nil || !ok || v != 5 {
		t.Fatalf("get behind a buffered insert = %d,%v,%v want 5,true", v, ok, err)
	}
	if n := len(c.InFlight()); n != 0 {
		t.Fatalf("%d frames in flight after a synchronous Get, want 0", n)
	}
}

// trickle relays one connection to addr, passing requests through untouched
// and handing the server's bytes to the client one at a time, and returns
// the address to dial.
func trickle(t *testing.T, addr string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		down, err := ln.Accept()
		if err != nil {
			return
		}
		defer down.Close()
		up, err := net.Dial("tcp", addr)
		if err != nil {
			return
		}
		go func() {
			io.Copy(up, down)
			up.Close()
		}()
		var b [1]byte
		for {
			if _, err := up.Read(b[:]); err != nil {
				return
			}
			if _, err := down.Write(b[:]); err != nil {
				return
			}
		}
	}()
	return ln.Addr().String()
}

// TestClientPartialResponses drives a pipelined client whose responses
// arrive a byte at a time, so it often holds part of a response while its
// own frames are still buffered. Holding them back must not deadlock —
// buffered bytes prove the request they answer has left — and responses
// must stay in issue order.
func TestClientPartialResponses(t *testing.T) {
	s := startServer(t, Config{Kind: engine.MirrorDRAM, Workers: 2})
	c, err := Dial(trickle(t, s.Addr().String()), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A deadlock fails the exchange instead of hanging the test.
	c.nc.SetDeadline(time.Now().Add(30 * time.Second))
	if w, err := c.SetPipeline(8); err != nil || w != 8 {
		t.Fatalf("SetPipeline(8) = %d, %v", w, err)
	}
	// Frame 2k-1 inserts k→7k and frame 2k reads it back, so each response
	// identifies its position in the stream.
	const keys = 150
	var got []wire.Response
	for k := uint64(1); k <= keys; k++ {
		for _, op := range []wire.Op{wire.OpInsert, wire.OpGet} {
			done, err := c.Submit(op, k, k*7, 0)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, done...)
		}
	}
	done, err := c.Drain()
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, done...)
	if len(got) != 2*keys {
		t.Fatalf("%d responses, want %d", len(got), 2*keys)
	}
	for i, r := range got {
		k := uint64(i/2 + 1)
		if i%2 == 0 && !(r.Result && r.Verdict == uint8(engine.Committed)) {
			t.Fatalf("response %d is not insert %d's: %+v", i, k, r)
		}
		if i%2 == 1 && !(r.Result && r.Rval == k*7 && r.Verdict == 0) {
			t.Fatalf("response %d is not get %d's: %+v", i, k, r)
		}
	}
}

// TestStatsOverTheWire: the counters STATS returns move exactly as the
// in-process Stats and engine Stats do across a session of every mutating
// kind — RMW and DEQ pay the announce barrier, a found DELETE does not —
// both snapshots taken at the same points, with nothing else running. The
// attach words are zero on a fresh server and, on a reopened one, its
// runtime's attach report.
func TestStatsOverTheWire(t *testing.T) {
	s := startServer(t, Config{Kind: engine.MirrorDRAM})
	c := dial(t, s, 3)
	snap := func() (Stats, engine.Stats, Stats, engine.Stats) {
		t.Helper()
		st, es, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		return st, es, s.Stats(), s.Engine().Stats()
	}
	w0, we0, i0, ie0 := snap()
	for k := uint64(1); k <= 20; k++ {
		if _, err := c.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(1); k <= 20; k += 3 {
		if _, err := c.Delete(k); err != nil {
			t.Fatal(err)
		}
		if _, err := c.RMW(k+1, k+1, k+100); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Enqueue(7); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Dequeue(); err != nil {
		t.Fatal(err)
	}
	// A delete inside its victim's insert window witnesses the insert.
	if _, err := c.Insert(21, 21); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Delete(21); err != nil {
		t.Fatal(err)
	}
	w1, we1, i1, ie1 := snap()

	sub := func(a, b Stats, ea, eb engine.Stats) []uint64 {
		var out []uint64
		aw, bw := statWords(&a, &ea), statWords(&b, &eb)
		for i := range aw {
			out = append(out, *aw[i]-*bw[i])
		}
		return out
	}
	over, in := sub(w1, w0, we1, we0), sub(i1, i0, ie1, ie0)
	for i := range over {
		if over[i] != in[i] {
			t.Errorf("counter %d moved by %d over STATS, %d in process", i+1, over[i], in[i])
		}
	}
	// 21 inserts, 8 deletes, 7 RMWs, one ENQ, one DEQ.
	if over[1] != 38 || over[6] == 0 || over[15] == 0 {
		t.Errorf("STATS deltas %v: want 38 mutations, fences and announce-barrier fences", over)
	}
	// Ids 27–29: a witness at least (the last delete's of its victim's
	// insert; a drain that frees a deleted node inside its delete's window
	// adds one), no witness fence, and the 21 inserts and eight deletes
	// acknowledged on their own evidence.
	if len(over) < 29 || over[26] < 1 || over[27] != 0 || over[28] != 29 {
		t.Errorf("STATS deltas %v: want a witness, 0 witness fences, 29 frames without a verdict at ids 27–29", over)
	}
	if w1.Attach != (Attach{}) {
		t.Errorf("a fresh server's STATS report an attach: %+v", w1.Attach)
	}
	// The reclamation gauges are read, not counted: over the wire they are
	// the in-process values of the same moment. The deletes and RMWs
	// retired nodes, which wait in a worker's limbo.
	for _, g := range []struct {
		name        string
		over, in    uint64
		wantNonzero bool
	}{
		{"live words", w1.LiveWords, i1.LiveWords, true},
		{"limbo", w1.Limbo, i1.Limbo, true},
		{"epoch lag", w1.EpochLag, i1.EpochLag, false},
	} {
		if g.over != g.in || (g.wantNonzero && g.in == 0) {
			t.Errorf("%s: %d over STATS, %d in process", g.name, g.over, g.in)
		}
	}
	if w1.LiveWords <= w0.LiveWords {
		t.Errorf("live words %d → %d across 20 inserts", w0.LiveWords, w1.LiveWords)
	}

	// The attach that built a reopened server reads over the wire as the
	// server's own report, in µs.
	media := filepath.Join(t.TempDir(), "media")
	s1, err := New(Config{Kind: engine.MirrorDRAM, MediaPath: media, Words: 1 << 18})
	if err != nil {
		t.Fatal(err)
	}
	cc := s1.rt.NewCtx()
	for k := uint64(1); k <= 200; k++ {
		s1.table.Insert(cc, k, k)
	}
	s1.Close()
	s2 := startServer(t, Config{Kind: engine.MirrorDRAM, MediaPath: media, Words: 1 << 18})
	st, _, err := dial(t, s2, 3).Stats()
	if err != nil {
		t.Fatal(err)
	}
	rep := s2.Recovery()
	if want := attachOf(rep); st.Attach != want || rep.Recover <= 0 {
		t.Errorf("STATS attach %+v, want the server's report %+v (%+v)", st.Attach, want, rep)
	}
	if a := st.Attach; a.LiveWords == 0 || a.Objects <= 200 || a.Workers != uint64(runtime.GOMAXPROCS(0)) {
		t.Errorf("STATS attach %+v: want live words, the table's 200 nodes and more, and GOMAXPROCS workers", a)
	}
}

// TestClientScanAllocs pins the allocations of a full SCAN page exchanged
// with an in-process server. testing.AllocsPerRun counts the whole
// process, so the bound covers both sides: the server's worker and
// connection goroutines serve a page from reused scratch, and the response
// lands in the client's read buffer, which is as long as any frame, so the
// one allocation is the client's Pairs slice. A new per-SCAN allocation on
// either side fails it.
func TestClientScanAllocs(t *testing.T) {
	s := startServer(t, Config{Kind: engine.MirrorDRAM, Workers: 1})
	c := dial(t, s, 1)
	for k := uint64(1); k <= wire.MaxScanKeys; k++ {
		if _, err := c.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	n := testing.AllocsPerRun(200, func() {
		pairs, err := c.Scan(1, wire.MaxScanKeys)
		if err != nil || len(pairs) != wire.MaxScanKeys {
			t.Fatalf("Scan = %d pairs, %v; want a full page", len(pairs), err)
		}
	})
	if n > 1 {
		t.Errorf("Client.Scan of a full page: %v allocations, want at most 1 (its Pairs)", n)
	}
}
