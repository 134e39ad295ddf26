package server

import (
	"bufio"
	"fmt"
	"net"

	"mirror/internal/engine"
	"mirror/internal/wire"
)

// Client is a wire-protocol client: one connection, one client id. It
// tracks the per-client sequence number; after a reconnect, restore it
// with SetSeq before resolving or replaying cut operations.
//
// By default it is synchronous — one outstanding operation. SetPipeline
// negotiates a deeper window with the server (bounded by the server's
// descriptor-ring depth), after which Submit keeps up to that many
// mutating frames in flight; responses arrive in issue order (the server
// preserves per-client FIFO) and every unacknowledged frame stays
// resolvable via DETECT after a crash.
//
// Submitted frames are buffered and leave only when the client is about to
// block on the socket with nothing buffered to read. A client handed k
// responses in one segment so refills its window with k frames in one
// write, which is what lets the server commit them under one fence.
//
// Not safe for concurrent use — the serving tier's concurrency unit is many
// clients, not many goroutines on one client.
type Client struct {
	nc  net.Conn
	rd  *bufio.Reader
	wr  *bufio.Writer
	id  uint32
	seq uint64
	// inflight is a ring as long as the granted window, holding the n
	// submitted-but-unacknowledged frames, the oldest at head.
	inflight []wire.Request
	head, n  int
	wbuf     []byte
	rbuf     []byte
}

// Dial connects to a mirrord server as the given client id.
func Dial(addr string, id uint32) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return newClient(nc, id), nil
}

func newClient(nc net.Conn, id uint32) *Client {
	return &Client{
		nc: nc, rd: bufio.NewReader(nc), wr: bufio.NewWriter(nc),
		id: id, inflight: make([]wire.Request, 1), rbuf: make([]byte, 64),
	}
}

// Close closes the connection.
func (c *Client) Close() error { return c.nc.Close() }

// ID returns the client id.
func (c *Client) ID() uint32 { return c.id }

// Seq returns the sequence number of the most recently issued mutating
// operation (0 before the first).
func (c *Client) Seq() uint64 { return c.seq }

// SetSeq restores the sequence counter after a reconnect, so the next
// mutation continues the per-client strictly-increasing series.
func (c *Client) SetSeq(seq uint64) { c.seq = seq }

// Do sends one request frame and reads its response, synchronously. Any
// in-flight pipelined frames are drained first, so the exchange observes
// program order. A StatusError response is returned as a
// *wire.ProtocolError (the server closes the connection after sending one).
func (c *Client) Do(req wire.Request) (wire.Response, error) {
	if _, err := c.Drain(); err != nil {
		return wire.Response{}, err
	}
	c.wbuf = wire.AppendRequest(c.wbuf[:0], req)
	if _, err := c.wr.Write(c.wbuf); err != nil {
		return wire.Response{}, err
	}
	if err := c.wr.Flush(); err != nil {
		return wire.Response{}, err
	}
	resp, err := wire.ReadResponse(c.rd, c.rbuf)
	if err != nil {
		return wire.Response{}, err
	}
	if resp.Status == wire.StatusError {
		return resp, &wire.ProtocolError{Reason: resp.Err}
	}
	return resp, nil
}

// SetPipeline negotiates a pipeline window of up to w mutating frames via
// HELLO and returns the granted depth (min of w and the server's
// descriptor-ring size). Depth 1 restores synchronous operation.
func (c *Client) SetPipeline(w int) (int, error) {
	if w < 1 {
		return 0, &wire.ProtocolError{Reason: "pipeline window must be >= 1"}
	}
	resp, err := c.Do(wire.Request{Op: wire.OpHello, Client: c.id, Val: uint64(w)})
	if err != nil {
		return 0, err
	}
	if resp.Rval < 1 || resp.Rval > uint64(w) {
		return 0, &wire.ProtocolError{Reason: fmt.Sprintf("server granted window %d of %d asked", resp.Rval, w)}
	}
	c.inflight, c.head = make([]wire.Request, resp.Rval), 0 // Do left nothing in flight
	return len(c.inflight), nil
}

// Submit issues one frame asynchronously — a mutating op (with the next
// sequence number) or a GET/SCAN (seq 0; the server still answers in FIFO
// order). If the window is full it first completes the oldest in-flight
// frame; any responses so completed are returned, oldest first (they
// correspond FIFO to earlier Submit calls). The submitted frame itself
// completes on a later Submit or Drain. All in-flight frames count
// against the window, so mutating frames can never outnumber the ring.
func (c *Client) Submit(op wire.Op, key, val, arg uint64) ([]wire.Response, error) {
	if op == wire.OpHello || op == wire.OpDetect {
		return nil, &wire.ProtocolError{Reason: "Submit cannot pipeline " + op.String()}
	}
	var done []wire.Response
	for c.n == len(c.inflight) {
		r, err := c.complete()
		if err != nil {
			return done, err
		}
		done = append(done, r)
	}
	var seq uint64
	if op.Mutating() {
		c.seq++
		seq = c.seq
	}
	req := wire.Request{Op: op, Client: c.id, Seq: seq, Key: key, Val: val, Arg: arg}
	c.wbuf = wire.AppendRequest(c.wbuf[:0], req)
	if _, err := c.wr.Write(c.wbuf); err != nil {
		return done, err
	}
	c.inflight[(c.head+c.n)%len(c.inflight)] = req
	c.n++
	return done, nil
}

// Drain completes every in-flight frame and returns their responses in
// issue order.
func (c *Client) Drain() ([]wire.Response, error) {
	done := make([]wire.Response, 0, c.n)
	for c.n > 0 {
		r, err := c.complete()
		if err != nil {
			return done, err
		}
		done = append(done, r)
	}
	return done, nil
}

// InFlight snapshots the submitted-but-unacknowledged frames, oldest
// first — after a lost connection these are exactly the operations to
// resolve via DETECT or replay.
func (c *Client) InFlight() []wire.Request {
	out := make([]wire.Request, c.n)
	for i := range out {
		out[i] = c.inflight[(c.head+i)%len(c.inflight)]
	}
	return out
}

// complete reads the oldest in-flight frame's response, first flushing the
// buffered frames if the read would otherwise block. Bytes already buffered
// belong to that oldest frame's response, so its request has left and the
// rest of the response is on its way: not flushing cannot deadlock.
func (c *Client) complete() (wire.Response, error) {
	if c.rd.Buffered() == 0 {
		if err := c.wr.Flush(); err != nil {
			return wire.Response{}, err
		}
	}
	resp, err := wire.ReadResponse(c.rd, c.rbuf)
	if err != nil {
		return wire.Response{}, err
	}
	c.head, c.n = (c.head+1)%len(c.inflight), c.n-1
	if resp.Status == wire.StatusError {
		return resp, &wire.ProtocolError{Reason: resp.Err}
	}
	return resp, nil
}

// mutate issues op with the next sequence number.
func (c *Client) mutate(op wire.Op, key, val uint64) (wire.Response, error) {
	c.seq++
	return c.Do(wire.Request{Op: op, Client: c.id, Seq: c.seq, Key: key, Val: val})
}

// Insert adds key→val to the served set.
func (c *Client) Insert(key, val uint64) (bool, error) {
	r, err := c.mutate(wire.OpInsert, key, val)
	return r.Result, err
}

// Delete removes key from the served set.
func (c *Client) Delete(key uint64) (bool, error) {
	r, err := c.mutate(wire.OpDelete, key, 0)
	return r.Result, err
}

// Get looks key up in the served set.
func (c *Client) Get(key uint64) (val uint64, ok bool, err error) {
	r, err := c.Do(wire.Request{Op: wire.OpGet, Client: c.id, Key: key})
	return r.Rval, r.Result, err
}

// Enqueue appends v to the served queue.
func (c *Client) Enqueue(v uint64) error {
	_, err := c.mutate(wire.OpEnqueue, 0, v)
	return err
}

// Dequeue removes the oldest element of the served queue.
func (c *Client) Dequeue() (v uint64, ok bool, err error) {
	r, err := c.mutate(wire.OpDequeue, 0, 0)
	return r.Rval, r.Result, err
}

// Scan returns up to limit present pairs with key >= start, in ascending
// key order (weakly consistent, like every lock-free range scan here).
func (c *Client) Scan(start uint64, limit int) ([]wire.KV, error) {
	r, err := c.Do(wire.Request{Op: wire.OpScan, Client: c.id, Key: start, Val: uint64(limit)})
	return r.Pairs, err
}

// RMW atomically replaces key's value with repl iff it currently holds
// expect (compare-and-set over the wire).
func (c *Client) RMW(key, expect, repl uint64) (bool, error) {
	c.seq++
	r, err := c.Do(wire.Request{Op: wire.OpRMW, Client: c.id, Seq: c.seq, Key: key, Val: expect, Arg: repl})
	return r.Result, err
}

// Stats asks the server for its serving counters and its engine's (STATS).
// The frame counts as no op and closes no batch; it mutates nothing and
// fences nothing.
func (c *Client) Stats() (Stats, engine.Stats, error) {
	var st Stats
	var es engine.Stats
	r, err := c.Do(wire.Request{Op: wire.OpStats, Client: c.id})
	if err != nil {
		return st, es, err
	}
	words := statWords(&st, &es)
	for _, kv := range r.Pairs {
		if kv.Key >= 1 && kv.Key <= uint64(len(words)) {
			*words[kv.Key-1] = kv.Val
		}
	}
	return st, es, nil
}

// Detect asks the server for the durable fate of this client's seq.
func (c *Client) Detect(seq uint64) (wire.Response, error) {
	return c.Do(wire.Request{Op: wire.OpDetect, Client: c.id, Seq: seq})
}

// Replay re-sends a mutating frame with an explicit (already consumed)
// sequence number — the reconnect path resolving a cut operation. The
// client's own counter is advanced past seq if behind.
func (c *Client) Replay(op wire.Op, seq, key, val uint64) (wire.Response, error) {
	if c.seq < seq {
		c.seq = seq
	}
	return c.Do(wire.Request{Op: op, Client: c.id, Seq: seq, Key: key, Val: val})
}
