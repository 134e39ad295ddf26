package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"mirror/internal/engine"
	"mirror/internal/harness"
	"mirror/internal/server"
	"mirror/internal/wire"
	"mirror/internal/workload"
)

// The load generator. One generator per connection turns the seed into a
// stream of YCSB operations with the same draws workload.Run makes (key,
// then operation, then scan span), so the served runs, the counted pass and
// its shadow replay all see one request sequence per (seed, connection).

type opKind uint8

const (
	kGet opKind = iota
	kInsert
	kDelete
	kScan
	nKinds
)

var kindNames = [nKinds]string{"GET", "INSERT", "DELETE", "SCAN"}

type genOp struct {
	kind opKind
	key  uint64
	to   uint64 // SCAN: last key of the span
}

type generator struct {
	state         uint64
	keyOf         workload.KeyFn
	rPM, iPM, dPM int // cumulative per-mille thresholds; the rest scans
	keyRange      uint64
	scanMax       uint64
}

func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// newGenerator seeds connection id's stream exactly as workload.Run seeds
// thread id's.
func newGenerator(spec workload.Spec, id int) *generator {
	if spec.Mix.RMWPM != 0 {
		panic("bench: the generator has no RMW operation")
	}
	scanMax := uint64(spec.ScanMax)
	if scanMax == 0 {
		scanMax = 100
	}
	return &generator{
		state:    uint64(spec.Seed)*0x9e3779b97f4a7c15 + uint64(id+1)*0x123456789,
		keyOf:    spec.KeyGen(),
		rPM:      spec.Mix.ReadPM,
		iPM:      spec.Mix.ReadPM + spec.Mix.InsertPM,
		dPM:      spec.Mix.ReadPM + spec.Mix.InsertPM + spec.Mix.DeletePM,
		keyRange: spec.KeyRange,
		scanMax:  scanMax,
	}
}

func (g *generator) next() genOp {
	key := g.keyOf(splitmix64(&g.state))
	switch op := int(splitmix64(&g.state) % 1000); {
	case op < g.rPM:
		return genOp{kind: kGet, key: key}
	case op < g.iPM:
		return genOp{kind: kInsert, key: key}
	case op < g.dPM:
		return genOp{kind: kDelete, key: key}
	default:
		to := key + splitmix64(&g.state)%(2*g.scanMax) + 1
		if to > g.keyRange {
			to = g.keyRange
		}
		return genOp{kind: kScan, key: key, to: to}
	}
}

// tally counts what a client attempted and what went wrong. A failure is an
// I/O error, a StatusError, or an answer that cannot be right; none of them
// panics.
type tally struct {
	attempted int64
	failed    int64
	inserted  int64 // INSERTs that reported the key absent
	deleted   int64 // DELETEs that reported the key present
	frames    int64
	firstErr  string
}

func (t *tally) fail(format string, args ...any) bool {
	t.failed++
	if t.firstErr == "" {
		t.firstErr = fmt.Sprintf(format, args...)
	}
	return false
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.inserted += o.inserted
	t.deleted += o.deleted
	t.frames += o.frames
	if t.firstErr == "" {
		t.firstErr = o.firstErr
	}
}

// pointRequest builds the frame of a GET/INSERT/DELETE. Values equal keys.
func pointRequest(o genOp, client uint32, seq uint64) wire.Request {
	switch o.kind {
	case kGet:
		return wire.Request{Op: wire.OpGet, Client: client, Key: o.key}
	case kInsert:
		return wire.Request{Op: wire.OpInsert, Client: client, Seq: seq, Key: o.key, Val: o.key}
	default:
		return wire.Request{Op: wire.OpDelete, Client: client, Seq: seq, Key: o.key}
	}
}

// checkPoint validates the response to a point request and books the
// successful mutations the final count check needs.
func (t *tally) checkPoint(o genOp, r wire.Response) bool {
	if r.Status != wire.StatusOK {
		return t.fail("%s %d: status %d %q", kindNames[o.kind], o.key, r.Status, r.Err)
	}
	switch o.kind {
	case kGet:
		if r.Result && r.Rval != o.key {
			return t.fail("GET %d returned value %d", o.key, r.Rval)
		}
	default:
		if !r.Known || r.Verdict != uint8(engine.Committed) {
			return t.fail("%s %d: acknowledged without a committed verdict", kindNames[o.kind], o.key)
		}
		if r.Result {
			if o.kind == kInsert {
				t.inserted++
			} else {
				t.deleted++
			}
		}
	}
	return true
}

// doer is one synchronous request/response exchange: a server.Client over
// TCP, or the shadow path calling the layers directly.
type doer interface {
	Do(wire.Request) (wire.Response, error)
}

// conn drives a doer synchronously as one client id. With a model (only
// sound when this is the only writer) every answer is checked exactly.
type conn struct {
	d        doer
	id       uint32
	seq      uint64
	keyRange uint64
	model    []bool // model[k]: key k present; nil under concurrency
	dead     bool   // the transport failed; stop using it
	tally
}

func (c *conn) run(o genOp) bool {
	c.attempted++
	if o.kind == kScan {
		return c.scan(o.key, o.to)
	}
	if o.kind != kGet {
		c.seq++
	}
	c.frames++
	r, err := c.d.Do(pointRequest(o, c.id, c.seq))
	if err != nil {
		c.dead = true
		return c.fail("%s %d: %v", kindNames[o.kind], o.key, err)
	}
	if !c.checkPoint(o, r) {
		return false
	}
	if c.model == nil {
		return true
	}
	present := c.model[o.key]
	switch o.kind {
	case kGet:
		if r.Result != present {
			return c.fail("GET %d = %v, model says %v", o.key, r.Result, present)
		}
	case kInsert:
		if r.Result == present {
			return c.fail("INSERT %d = %v, model had present=%v", o.key, r.Result, present)
		}
		c.model[o.key] = true
	case kDelete:
		if r.Result != present {
			return c.fail("DELETE %d = %v, model had present=%v", o.key, r.Result, present)
		}
		c.model[o.key] = false
	}
	return true
}

// scan pages SCAN frames over [from, to], wire.MaxScanKeys at a time. Every
// page must hold ascending keys at or above its start key with values equal
// to keys; with a model the page must be exactly the next present keys.
func (c *conn) scan(from, to uint64) bool {
	for start := from; start <= to; {
		limit := to - start + 1
		if limit > wire.MaxScanKeys {
			limit = wire.MaxScanKeys
		}
		c.frames++
		r, err := c.d.Do(wire.Request{Op: wire.OpScan, Client: c.id, Key: start, Val: limit})
		if err != nil {
			c.dead = true
			return c.fail("SCAN %d: %v", start, err)
		}
		if r.Status != wire.StatusOK || r.Pairs == nil || uint64(len(r.Pairs)) > limit || r.Rval != uint64(len(r.Pairs)) {
			return c.fail("SCAN %d limit %d: malformed response (%d pairs, rval %d)", start, limit, len(r.Pairs), r.Rval)
		}
		prev := start - 1
		for _, kv := range r.Pairs {
			if kv.Key <= prev || kv.Val != kv.Key {
				return c.fail("SCAN %d: pair (%d,%d) after key %d", start, kv.Key, kv.Val, prev)
			}
			prev = kv.Key
		}
		if c.model != nil {
			n := 0
			for k := start; k <= c.keyRange && n < int(limit); k++ {
				if !c.model[k] {
					continue
				}
				if n >= len(r.Pairs) || r.Pairs[n].Key != k {
					return c.fail("SCAN %d: short or wrong page, model expects key %d at position %d", start, k, n)
				}
				n++
			}
			if n != len(r.Pairs) {
				return c.fail("SCAN %d: %d pairs, model expects %d", start, len(r.Pairs), n)
			}
		}
		if uint64(len(r.Pairs)) < limit || prev >= to {
			break
		}
		start = prev + 1
	}
	return true
}

// prefillKeys calls insert for the deterministic pseudo-random half of the
// key range, in the order workload.PrefillHalf uses, and returns how many.
func prefillKeys(keyRange uint64, seed int64, insert func(key uint64)) int {
	return workload.PrefillHalf(workload.Target{
		Name:      "bench-prefill",
		NewWorker: func() workload.Worker { return insertOnly(insert) },
	}, keyRange, seed)
}

type insertOnly func(key uint64)

func (f insertOnly) Insert(key, _ uint64) bool { f(key); return true }
func (insertOnly) Delete(uint64) bool          { panic("bench: prefill deletes nothing") }
func (insertOnly) Contains(uint64) bool        { panic("bench: prefill reads nothing") }

// prefillSync loads the prefill through c one acknowledged INSERT at a
// time; every key must be new.
func prefillSync(c *conn, seed int64) int {
	return prefillKeys(c.keyRange, seed, func(key uint64) {
		if c.dead {
			return
		}
		was := c.inserted
		if c.run(genOp{kind: kInsert, key: key}) && c.inserted == was {
			c.fail("prefill INSERT %d found the key present", key)
		}
	})
}

// insertPipelined inserts the keys feed hands to insert over one connection
// at the given pipeline depth; every key must be acknowledged as new.
func insertPipelined(addr string, id uint32, depth int, feed func(insert func(key uint64))) (tally, error) {
	var t tally
	cl, err := server.Dial(addr, id)
	if err != nil {
		return t, err
	}
	defer cl.Close()
	if _, err := cl.SetPipeline(depth); err != nil {
		return t, err
	}
	check := func(done []wire.Response) {
		for _, r := range done {
			if r.Status != wire.StatusOK || !r.Result || r.Verdict != uint8(engine.Committed) {
				t.fail("prefill INSERT not acknowledged as new: %+v", r)
			}
		}
	}
	feed(func(key uint64) {
		if err != nil {
			return
		}
		t.attempted++
		var done []wire.Response
		done, err = cl.Submit(wire.OpInsert, key, key, 0)
		check(done)
	})
	if err == nil {
		var done []wire.Response
		done, err = cl.Drain()
		check(done)
	}
	if err != nil {
		return t, fmt.Errorf("prefill: %w", err)
	}
	return t, nil
}

// loadStats is what one timed client records. Windows are numbered from 1;
// phase 0 is warm-up and a phase above the window count means stop.
type loadStats struct {
	tally
	winHist  []harness.Hist       // every request of each measured window
	kindHist [nKinds]harness.Hist // all measured windows, by operation kind
}

func newLoadStats(windows int) *loadStats {
	return &loadStats{winHist: make([]harness.Hist, windows)}
}

func (s *loadStats) record(phase int32, kind opKind, d time.Duration) {
	if phase >= 1 && int(phase) <= len(s.winHist) {
		s.winHist[phase-1].Record(uint64(d))
		s.kindHist[kind].Record(uint64(d))
	}
}

// loopSync is the closed loop of a depth-1 connection: the next request is
// sent when the previous reply has arrived.
func loopSync(c *conn, g *generator, phase *atomic.Int32, st *loadStats) {
	for !c.dead && int(phase.Load()) <= len(st.winHist) {
		o := g.next()
		t0 := time.Now()
		c.run(o)
		st.record(phase.Load(), o.kind, time.Since(t0))
	}
	st.tally = c.tally
}

// loopPipelined keeps the negotiated window of frames in flight. A
// request's latency runs from its Submit to the moment its response was
// read, which is when a later Submit made room for it.
func loopPipelined(cl *server.Client, g *generator, phase *atomic.Int32, st *loadStats) {
	type pending struct {
		op genOp
		t0 time.Time
	}
	var pend []pending
	complete := func(done []wire.Response) {
		now := time.Now()
		ph := phase.Load()
		for _, r := range done {
			p := pend[0]
			pend = pend[1:]
			st.checkPoint(p.op, r)
			st.record(ph, p.op.kind, now.Sub(p.t0))
		}
	}
	for int(phase.Load()) <= len(st.winHist) {
		o := g.next()
		if o.kind == kScan {
			panic("bench: the pipelined loop carries point operations only")
		}
		st.attempted++
		st.frames++
		t0 := time.Now()
		req := pointRequest(o, 0, 0) // Submit numbers the frame itself
		done, err := cl.Submit(req.Op, req.Key, req.Val, 0)
		complete(done)
		if err != nil {
			st.fail("%s %d: %v", kindNames[o.kind], o.key, err)
			st.failed += int64(len(pend)) // their replies will never come
			return
		}
		pend = append(pend, pending{o, t0})
	}
	done, err := cl.Drain()
	complete(done)
	if err != nil {
		st.fail("drain: %v", err)
		st.failed += int64(len(pend))
	}
}
