// Package server implements mirrord's serving tier: a TCP front end over
// one durable persistence engine, exposing a keyed ordered set (the
// lock-free skip list — ordered so SCAN is native) and a FIFO queue
// through the wire protocol of internal/wire.
//
// The interesting part is the write path. Every mutating frame carries the
// engine's detectability identity (client, seq), and the server runs it
// under the batched-verdict descriptor protocol. A frame belongs to a worker
// chosen by client id; the worker owns one engine context and one batch,
// executes each frame with its verdict deferred (DetectBeginDeferred /
// DetectEndDeferred), and a single DetectDrain then publishes every verdict
// recorded since the last one under one trailing fence before any response
// is released. The server decides nothing about fences: the engine orders
// each announce before its operation's first install (and not at all for an
// operation that installs nothing), makes every install durable before it
// is visible, and lets whatever no verdict testifies to share the drain's
// fence. A found DELETE pays no fence for its announce: its level-0 mark
// carries the operation's tag, and the mark's own fence commits the
// announce with it. An INSERT or DELETE that takes effect pays no verdict
// fence either: its tagged node or mark testifies for it once its own
// install's fence has run, so only a frame without effect waits for the
// drain's fence. On the counted YCSB-A pass at depth 1 (bench/,
// serve-a-sync, seed 3) that is 1.2785 fences per mutation, where a
// verdict fence for every mutation made it 1.7586 and the announce barrier
// before every mark 2.0078; STATS returns the counters that show it — the
// announce-barrier fences, the witnesses, the witness fences and the
// mutations acknowledged without a verdict among them. Fence batching
// turns k commits that are pending together into one verdict fence
// without weakening the contract: a client holds no acknowledgement until
// its operation is persistent, and after a crash the descriptor region
// resolves every unacknowledged frame via DETECT.
//
// A worker is a context and a batch, not a goroutine: the connection reader
// runs each frame itself, holding the worker's ownership token (worker.mu)
// while it touches the context or the batch, so no frame waits on a
// goroutine hand-off and:
//
//   - ack-after-drain: every response leaves through release, which drains
//     first;
//   - per-client FIFO: one reader runs its connection's frames one after
//     another, in arrival order;
//   - one writer per descriptor ring: one goroutine at a time runs with a
//     worker's context;
//   - MaxBatch bounds the staged responses; MaxBatch = 1 is the unbatched
//     ablation, one fence per mutation.
//
// What closes a batch is what is pending, never a clock: the reader releases
// the moment its buffer holds no complete frame, or once Config.MaxBatch
// responses are staged. Frames that arrived together leave under one fence;
// a lone frame is answered right after its own drain, because holding it
// could only buy company that is not there.
//
// Routing by client id (client mod workers) gives each descriptor ring one
// worker, so the token makes it single-writer. A client's frames run in
// order because its connection's reader runs them one by one, which the
// Detect truth table requires ("the entry moved a whole lap past seq"
// implies seq's response was released). A frame the server cannot serve is
// answered last: its terminal error leaves after every response the
// connection's earlier frames earned.
//
// Pipelining: each client owns a descriptor ring of Config.Ring entries,
// so it may keep up to Ring mutating frames in flight before reading
// responses (negotiated by HELLO, which returns the granted window). A
// client that refills its window in one write (Client flushes only when it
// would block) hands its reader a full window in one segment, which
// drains under one fence — depth replaces connection count as the
// source of batchable concurrency.
//
// With Config.MediaPath the engine's fenced image lives in a file-backed
// mapping, so the whole thing survives kill -9: a restarted server reopens
// the image through the runtime (internal/rt) — which recovers, repairs and
// verifies it before New returns — and serves the pre-crash state. The
// attach order, the sidecar that tells a reattachable image from garbage,
// and its root-layout record are DESIGN.md "One runtime".
package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mirror/internal/engine"
	"mirror/internal/rt"
	"mirror/internal/structures"
	"mirror/internal/structures/queue"
	"mirror/internal/structures/skiplist"
	"mirror/internal/wire"
)

// Root fields used by the served structures, of the 8 New gives the engine:
// the skip list owns root field 0 (its head sentinel); the queue owns 4 and
// 5 (its head/tail pair). They are the served media layout.
const (
	tableRoot = 0
	queueRoot = 4
)

// Config describes a server instance.
type Config struct {
	// Kind selects the durable engine; New rejects non-durable kinds
	// (an acknowledgement from a volatile server would be a lie).
	Kind engine.Kind
	// Words sizes each engine device (default 1<<20).
	Words int
	// Ring is the per-client descriptor-ring depth — the maximum number of
	// mutating frames one client may have in flight (default
	// engine.DefaultDetectRing). HELLO grants min(requested, Ring).
	Ring int
	// Clients is the descriptor-ring count — the exclusive upper bound on
	// client ids the server accepts (default 64, max wire.MaxClients).
	Clients int
	// Workers is the number of workers (default 2), each one engine context
	// and one batch. Frames are routed by client id modulo Workers.
	Workers int
	// MediaPath backs the engine's fenced image with a file so it survives
	// process death. Empty keeps the image in process memory (tests,
	// benchmarks). Its sidecar MediaPath+".meta" records the layout.
	MediaPath string
	// MaxBatch bounds the responses held back for one drain (default 128):
	// under a connection whose frames never stop arriving it bounds how long
	// the first frame of a batch waits for its acknowledgement. 1 drains
	// and responds after every operation, so each mutation pays its own
	// fence (the group-commit ablation).
	MaxBatch int
	// BatchWait is ignored.
	//
	// Deprecated: it was a timed group-commit window; a batch now closes
	// when the reader's buffer holds no whole frame. The field remains only
	// so that callers that set it keep compiling.
	BatchWait time.Duration
}

func (c *Config) setDefaults() error {
	if !c.Kind.Durable() {
		return fmt.Errorf("server: engine kind %v is not durable", c.Kind)
	}
	if c.Words == 0 {
		c.Words = 1 << 20
	}
	if c.Ring == 0 {
		c.Ring = engine.DefaultDetectRing
	}
	if c.Clients == 0 {
		c.Clients = 64
	}
	if c.Clients < 1 || c.Clients > wire.MaxClients {
		return fmt.Errorf("server: clients %d outside [1, %d]", c.Clients, wire.MaxClients)
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 128
	}
	return nil
}

// Stats is a snapshot of the server's serving counters plus the engine's
// persistence counters, for the fences-per-operation ablation, and what the
// attach that built the server cost. The STATS opcode returns it with the
// engine's Stats (Client.Stats).
type Stats struct {
	Ops       uint64 // frames executed (including GET and DETECT)
	Mutations uint64 // frames that ran a mutating operation body
	Replays   uint64 // mutating frames short-circuited by a committed descriptor
	Scans     uint64 // SCAN frames served
	Batches   uint64 // drain batches released
	Flushes   uint64 // engine cumulative flushes
	Fences    uint64 // engine cumulative fences
	Attach    Attach // constant over the server's life

	// Reclamation, read when the snapshot is taken rather than counted: the
	// words allocated per replica, the objects retired and not yet freed
	// (summed over the workers), and the largest epoch lag of a worker's
	// limbo (palloc.Cache.EpochLag).
	LiveWords, Limbo, EpochLag uint64
}

// Attach is the runtime's attach report (rt.Report) in the words STATS
// carries: the phases in µs, the live words and objects the trace reached,
// and the recovery's worker count. All zero when New started fresh.
type Attach struct {
	OpenUS, RecoverUS, RepairUS, VerifyUS uint64
	LiveWords, Objects, Workers           uint64
}

// attachOf converts an attach report to its STATS words.
func attachOf(r rt.Report) Attach {
	us := func(d time.Duration) uint64 { return uint64(d.Microseconds()) }
	return Attach{
		OpenUS: us(r.Open), RecoverUS: us(r.Recover), RepairUS: us(r.Repair), VerifyUS: us(r.Verify),
		LiveWords: r.LiveWords, Objects: r.Objects, Workers: uint64(r.Workers),
	}
}

// Server is one mirrord instance.
type Server struct {
	cfg   Config
	rt    *rt.Runtime
	e     engine.Engine
	table *skiplist.SkipList
	q     *queue.Queue

	ln      net.Listener
	workers []*worker
	wg      sync.WaitGroup // accept loop + connection readers

	mu     sync.Mutex
	conns  map[*conn]struct{}
	closed bool

	ops       atomic.Uint64
	mutations atomic.Uint64
	replays   atomic.Uint64
	scans     atomic.Uint64
	batches   atomic.Uint64
}

// New opens the runtime — attaching to an existing media image when the
// runtime's sidecar proves one is present and compatible — and builds the
// workers, but does not listen yet.
func New(cfg Config) (*Server, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	r, err := rt.Open(engine.Config{
		Kind:       cfg.Kind,
		Words:      cfg.Words,
		RootFields: 8,
		Track:      cfg.MediaPath != "",
		Clients:    cfg.Clients,
		DetectRing: cfg.Ring,
		MediaPath:  cfg.MediaPath,
	})
	if err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, rt: r, e: r.Engine(), conns: make(map[*conn]struct{})}
	c := r.NewCtx()
	table, err := r.At(c, "skiplist", tableRoot, 0)
	var q any
	if err == nil {
		q, err = r.At(c, "queue", queueRoot, 0)
	}
	if err != nil {
		r.Close()
		return nil, err
	}
	s.table, s.q = table.(*skiplist.SkipList), q.(*queue.Queue)
	for i := 0; i < cfg.Workers; i++ {
		s.workers = append(s.workers, &worker{
			s: s, c: r.NewCtx(),
			pairs: make([]wire.KV, 0, wire.MaxScanKeys), // non-nil: an empty scan still answers with pairs
		})
	}
	return s, nil
}

// Attached reports whether New adopted an existing media image.
func (s *Server) Attached() bool { return s.rt.Attached() }

// Recovery reports what the attach cost, phase by phase (zero when New
// started fresh).
func (s *Server) Recovery() rt.Report { return s.rt.Recovery() }

// Engine exposes the underlying engine for in-process benchmarks and tests.
func (s *Server) Engine() engine.Engine { return s.e }

// Stats snapshots the serving and persistence counters, and reads each
// worker's limbo under that worker's ownership token, so the caller must
// hold none.
func (s *Server) Stats() Stats {
	var limbo, lag uint64
	for _, w := range s.workers {
		w.mu.Lock()
		limbo += uint64(w.c.Cache.LimboLen())
		lag = max(lag, w.c.Cache.EpochLag())
		w.mu.Unlock()
	}
	live, _ := s.e.Footprint()
	fl, fe := s.e.Counters()
	return Stats{
		Ops:       s.ops.Load(),
		Mutations: s.mutations.Load(),
		Replays:   s.replays.Load(),
		Scans:     s.scans.Load(),
		Batches:   s.batches.Load(),
		Flushes:   fl,
		Fences:    fe,
		Attach:    attachOf(s.rt.Recovery()),
		LiveWords: live,
		Limbo:     limbo,
		EpochLag:  lag,
	}
}

// statWords lists the counters STATS reports, each at its id: the index
// plus one. The list only grows at its end, so an id keeps its meaning and
// a client ignores the ids it does not know.
func statWords(st *Stats, es *engine.Stats) []*uint64 {
	return []*uint64{
		&st.Ops, &st.Mutations, &st.Replays, &st.Scans, &st.Batches, &st.Flushes, &st.Fences,
		&es.Helps, &es.Retries, &es.ElidedFlushes, &es.ElidedFences, &es.PiggybackedFences,
		&es.RelaxedCAS, &es.DetectAnnounces, &es.DetectVerdicts, &es.AnnounceFences,
		&st.Attach.OpenUS, &st.Attach.RecoverUS, &st.Attach.RepairUS, &st.Attach.VerifyUS,
		&st.Attach.LiveWords, &st.Attach.Objects, &st.Attach.Workers,
		&st.LiveWords, &st.Limbo, &st.EpochLag,
		&es.Witnesses, &es.WitnessFences, &es.Unverdicted,
	}
}

// statsResponse is the STATS answer: every counter at its id.
func (s *Server) statsResponse() wire.Response {
	st, es := s.Stats(), s.e.Stats()
	words := statWords(&st, &es)
	pairs := make([]wire.KV, len(words))
	for i, p := range words {
		pairs[i] = wire.KV{Key: uint64(i + 1), Val: *p}
	}
	return wire.Response{Status: wire.StatusOK, Result: true, Known: true, Pairs: pairs}
}

// Listen binds addr and starts the accept loop.
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return nil
}

// Addr returns the bound listener address (nil before Listen).
func (s *Server) Addr() net.Addr {
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops accepting, closes every connection, waits for their readers
// (a reader releases any batch it left open before it exits), then closes
// the runtime. The workers' contexts die with it, limbo and all: freeing
// that limbo into an allocator nothing will use again would only spend
// flushes and fences — a drain commits the relaxed snips and owed
// witnesses before it frees — on memory no one reuses. The media image
// stays valid for a later attach; Stats still answers.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for cn := range s.conns {
		cn.nc.Close()
	}
	s.mu.Unlock()
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	s.wg.Wait() // accept loop + readers: no frame runs after this
	if cerr := s.rt.Close(); err == nil {
		err = cerr
	}
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return
		}
		cn := &conn{nc: nc}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return
		}
		s.conns[cn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.readLoop(cn)
	}
}

// conn is one client connection. Responses are written under wmu: a batch
// is released by whichever reader closes it, so another connection's reader
// may write this one's responses.
type conn struct {
	nc   net.Conn
	wmu  sync.Mutex
	wbuf []byte // one release's frames for this connection; guarded by wmu
}

func (cn *conn) write(b []byte) {
	cn.wmu.Lock()
	cn.nc.Write(b) // a dead connection just drops the response
	cn.wmu.Unlock()
}

// readLoop parses frames off one connection and runs each on its worker.
// A malformed frame is answered with a terminal error response, behind the
// responses of every earlier frame: framing cannot resynchronize, so the
// connection then closes.
func (s *Server) readLoop(cn *conn) {
	defer s.wg.Done()
	defer func() {
		cn.nc.Close()
		s.mu.Lock()
		delete(s.conns, cn)
		s.mu.Unlock()
	}()
	rd := bufio.NewReader(cn.nc)
	buf := make([]byte, 64)
	var held *worker // its batch may hold responses this reader staged and did not release
	for {
		req, err := wire.ReadRequest(rd, buf)
		if err == nil && int(req.Client) >= s.cfg.Clients {
			err = &wire.ProtocolError{Reason: fmt.Sprintf("client id %d outside [0, %d)", req.Client, s.cfg.Clients)}
		}
		if err != nil {
			// Only this reader stages this connection's responses, and it
			// leaves at most held's batch open: once that is released,
			// every response an earlier frame earned has been written.
			if held != nil {
				held.flush()
			}
			var pe *wire.ProtocolError
			if errors.As(err, &pe) {
				cn.write(wire.AppendResponse(nil, wire.Response{Status: wire.StatusError, Err: pe.Reason}))
			}
			return
		}
		if req.Op == wire.OpStats {
			// STATS takes every worker's token in turn (Stats), so it runs
			// on none. Once held's batch is released, every response an
			// earlier frame of this connection earned is written, and this
			// one follows them. It counts as no op and closes no batch.
			if held != nil {
				held.flush()
				held = nil
			}
			cn.write(wire.AppendResponse(nil, s.statsResponse()))
			continue
		}
		w := s.workers[int(req.Client)%len(s.workers)]
		if held != nil && held != w {
			// Only this reader's next frame was going to close that batch.
			held.flush()
		}
		held = nil
		if w.run(cn, req, rd) {
			held = w
		}
	}
}

// stagedResp is one encoded response awaiting its batch's drain: the bytes
// worker.out[off:end].
type stagedResp struct {
	cn       *conn // nil once release has gathered it
	off, end int
}

// worker executes one partition of the client-id space. It owns one engine
// context, so every descriptor slot it serves is single-writer, and one
// batch. The connection readers run its frames (run), each holding mu.
type worker struct {
	s      *Server
	mu     sync.Mutex // ownership token: guards c, staged, out and pairs
	c      *engine.Ctx
	staged []stagedResp
	out    []byte    // the staged responses' frames, in execution order
	pairs  []wire.KV // SCAN scratch of the largest limit; a response is encoded before the next frame runs
}

// run executes the frame req of cn on the calling reader and closes the
// batch when MaxBatch responses are staged or rd holds no complete frame; a
// partly received frame counts as none, since reading it may block. Nothing
// is gained by holding a response once no further frame is waiting:
// whatever could have shared its fence has already been executed. run
// reports whether it left the batch open because rd's next frame is already
// here: the reader must run it or flush the batch.
func (w *worker) run(cn *conn, req wire.Request, rd *bufio.Reader) (open bool) {
	w.mu.Lock()
	w.exec(cn, req)
	open = len(w.staged) < w.s.cfg.MaxBatch && frameBuffered(rd)
	if !open {
		w.release()
	}
	w.mu.Unlock()
	return open
}

// flush releases whatever the batch holds.
func (w *worker) flush() {
	w.mu.Lock()
	w.release()
	w.mu.Unlock()
}

// frameBuffered reports whether rd holds a whole frame, so that reading it
// cannot block.
func frameBuffered(rd *bufio.Reader) bool {
	if rd.Buffered() < 4 {
		return false
	}
	p, _ := rd.Peek(4)
	return rd.Buffered()-4 >= int(binary.LittleEndian.Uint32(p))
}

// release drains the batch's deferred verdicts under one fence, then writes
// the staged responses — one write per connection, each connection's frames
// in execution order. No response escapes before its operation is durable.
func (w *worker) release() {
	if len(w.staged) == 0 {
		return
	}
	w.s.e.DetectDrain(w.c)
	w.s.batches.Add(1)
	for i := range w.staged {
		cn := w.staged[i].cn
		if cn == nil {
			continue // left with an earlier frame of its connection
		}
		cn.wmu.Lock()
		cn.wbuf = cn.wbuf[:0]
		for j := i; j < len(w.staged); j++ {
			if st := &w.staged[j]; st.cn == cn {
				cn.wbuf = append(cn.wbuf, w.out[st.off:st.end]...)
				st.cn = nil
			}
		}
		cn.nc.Write(cn.wbuf) // a dead connection just drops the responses
		cn.wmu.Unlock()
	}
	w.staged, w.out = w.staged[:0], w.out[:0]
}

// stage encodes resp behind the batch's earlier responses.
func (w *worker) stage(cn *conn, resp wire.Response) {
	off := len(w.out)
	w.out = wire.AppendResponse(w.out, resp)
	w.staged = append(w.staged, stagedResp{cn: cn, off: off, end: len(w.out)})
}

// exec runs one frame and stages its response. Mutating frames consult the
// descriptor first: a committed (client, seq) is answered from its recorded
// verdict instead of re-running — the server half of exactly-once replay.
func (w *worker) exec(cn *conn, r wire.Request) {
	s, c := w.s, w.c
	s.ops.Add(1)
	var resp wire.Response
	if (r.Op == wire.OpGet || r.Op == wire.OpInsert || r.Op == wire.OpDelete || r.Op == wire.OpRMW) &&
		(r.Key == 0 || r.Key > structures.KeyMax) {
		// Keyed frames address the set, whose usable keys are
		// [1, structures.KeyMax]. A bad key is the client's error, not a
		// connection fault: answer it and keep serving.
		w.stage(cn, wire.Response{
			Status: wire.StatusError,
			Err:    fmt.Sprintf("key %d outside usable range", r.Key),
		})
		return
	}
	switch r.Op {
	case wire.OpGet:
		v, ok := s.table.Get(c, r.Key)
		resp = wire.Response{Status: wire.StatusOK, Result: ok, Known: true, Rval: v}
	case wire.OpScan:
		// Range over the ordered set from the start key, up to the
		// decoded limit (already bounded by wire.MaxScanKeys). Weakly
		// consistent like every lock-free range scan here: concurrent
		// mutations may or may not appear, but every pair returned was
		// present at some point during the walk.
		from := r.Key
		if from == 0 {
			from = 1
		}
		pairs := w.pairs[:0]
		s.table.Range(c, from, structures.KeyMax, func(k, v uint64) bool {
			pairs = append(pairs, wire.KV{Key: k, Val: v})
			return uint64(len(pairs)) < r.Val
		})
		s.scans.Add(1)
		resp = wire.Response{
			Status: wire.StatusOK, Result: true, Known: true,
			Rval: uint64(len(pairs)), Pairs: pairs,
		}
	case wire.OpHello:
		// Pipeline handshake: grant the smaller of the client's requested
		// window and the descriptor-ring depth. The ring is the hard
		// bound — a client with more than Ring unacknowledged seqs could
		// lap its own unresolved entries.
		granted := r.Val
		if ring := uint64(s.cfg.Ring); granted > ring {
			granted = ring
		}
		resp = wire.Response{Status: wire.StatusOK, Result: true, Known: true, Rval: granted}
	case wire.OpDetect:
		// Commit this worker's pending verdicts first: the asked-about slot
		// belongs to this worker's partition, so after the drain the answer
		// is durable truth.
		s.e.DetectDrain(c)
		d := s.e.Detect(int(r.Client), r.Seq)
		resp = wire.Response{
			Status: wire.StatusOK, Result: d.Result, Known: d.KnownResult,
			Verdict: uint8(d.Verdict), Rval: d.Rval,
		}
	default: // mutating
		if d := s.e.Detect(int(r.Client), r.Seq); d.Verdict == engine.Committed {
			s.replays.Add(1)
			resp = wire.Response{
				Status: wire.StatusOK, Result: d.Result, Known: d.KnownResult,
				Verdict: uint8(engine.Committed), Rval: d.Rval,
			}
			break
		}
		s.mutations.Add(1)
		client := int(r.Client)
		var result bool
		var rval uint64
		switch r.Op {
		case wire.OpInsert:
			s.e.DetectBeginDeferred(c, client, r.Seq, engine.DetectInsert, r.Key, r.Val)
			result = s.table.Insert(c, r.Key, r.Val)
		case wire.OpDelete:
			s.e.DetectBeginDeferred(c, client, r.Seq, engine.DetectDelete, r.Key, 0)
			result = s.table.Delete(c, r.Key)
		case wire.OpEnqueue:
			s.e.DetectBeginDeferred(c, client, r.Seq, engine.DetectEnqueue, 0, r.Val)
			s.q.Enqueue(c, r.Val)
			result = true
		case wire.OpDequeue:
			s.e.DetectBeginDeferred(c, client, r.Seq, engine.DetectDequeue, 0, 0)
			rval, result = s.q.Dequeue(c)
		case wire.OpRMW:
			// Compare-and-set the key's value: expect in Val, new in Arg.
			s.e.DetectBeginDeferred(c, client, r.Seq, engine.DetectRMW, r.Key, r.Val)
			result = s.table.CasVal(c, r.Key, r.Val, r.Arg)
		}
		s.e.DetectEndDeferred(c, result, rval)
		resp = wire.Response{
			Status: wire.StatusOK, Result: result, Known: true,
			Verdict: uint8(engine.Committed), Rval: rval,
		}
	}
	w.stage(cn, resp)
}
