// Package wire defines mirrord's length-prefixed binary protocol. A
// connection carries a stream of frames in each direction; every frame is a
// uint32 little-endian length followed by that many payload bytes.
//
// Request payload (fixed 29 bytes; RMW carries one extra word, 37 bytes):
//
//	op     uint8    operation code (Op*)
//	client uint32   client id — the engine descriptor ring
//	seq    uint64   per-client sequence number, strictly increasing from 1
//	key    uint64   key (SCAN: start key; HELLO, STATS: must be 0)
//	val    uint64   value (SCAN: limit; RMW: expected value; HELLO: window;
//	                STATS: must be 0)
//	arg    uint64   RMW only: the new value
//
// Response payload (11 bytes + optional trailing section):
//
//	status  uint8   StatusOK | StatusError
//	flags   uint8   bit 0 result, bit 1 known-result, bit 2 scan pairs
//	verdict uint8   Detect answer: 0 unknown, 1 committed, 2 not committed
//	rval    uint64  value returned by GET/DEQ/RMW (HELLO: granted window;
//	                SCAN: pair count; and Detect's recorded rval)
//	tail    []byte  UTF-8 message iff status == StatusError; iff flags bit 2,
//	                the scan's (key, val) pairs, 16 bytes each little-endian
//	                (STATS: (counter id, value) pairs in the same encoding)
//
// Every mutating frame carries (client, seq), which is exactly the
// detectability identity of the engine's descriptor protocol: a client that
// loses its connection mid-operation reconnects and sends DETECT (or replays
// the frame with the same seq) to resolve each cut operation exactly once.
// Pipelining rides the same identity: after a HELLO handshake grants a
// window w (clamped to the server's descriptor-ring size), a client may
// have up to w mutating frames in flight before reading responses; the
// server preserves per-client FIFO order, so responses arrive in issue
// order and every unacknowledged seq stays resolvable via DETECT.
//
// STATS asks for the server's counters; their ids are the server's
// (server.Client.Stats decodes them).
//
// Decoding is strict: an unknown op, a bad payload length for the op, a
// zero seq on a mutating op or DETECT, a nonzero seq on a non-mutating op,
// a zero-limit or over-limit SCAN, a malformed HELLO or STATS, an out-of-range
// length prefix, or inconsistent trailing bytes each produce a
// *ProtocolError. Garbage must never panic or decode into a plausible
// request.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Op is a request operation code.
type Op uint8

// Operation codes. GET, SCAN, HELLO and STATS are non-mutating and must carry
// seq 0; DETECT asks about one mutating seq and must carry it; the rest
// must carry a nonzero per-client sequence number.
const (
	OpGet Op = iota + 1
	OpInsert
	OpDelete
	OpEnqueue
	OpDequeue
	OpDetect
	OpScan
	OpRMW
	OpHello
	OpStats
	opMax
)

// String names the op as it appears in the protocol table.
func (o Op) String() string {
	switch o {
	case OpGet:
		return "GET"
	case OpInsert:
		return "INSERT"
	case OpDelete:
		return "DELETE"
	case OpEnqueue:
		return "ENQ"
	case OpDequeue:
		return "DEQ"
	case OpDetect:
		return "DETECT"
	case OpScan:
		return "SCAN"
	case OpRMW:
		return "RMW"
	case OpHello:
		return "HELLO"
	case OpStats:
		return "STATS"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Mutating reports whether the op changes durable state (and therefore
// must carry a nonzero seq and run under a descriptor).
func (o Op) Mutating() bool {
	switch o {
	case OpInsert, OpDelete, OpEnqueue, OpDequeue, OpRMW:
		return true
	}
	return false
}

// Response status codes.
const (
	StatusOK    uint8 = 1
	StatusError uint8 = 2
)

// Frame size limits. MaxFrame bounds any length prefix the reader will
// honor, so a garbage prefix cannot trigger a huge allocation.
const (
	requestLen    = 29
	rmwRequestLen = requestLen + 8
	responseMin   = 11
	pairLen       = 16
	MaxFrame      = 2048
)

// MaxScanKeys bounds one SCAN's result pairs: it is the most pairs one
// response of MaxFrame bytes carries (127), so a page fills its frame.
// HELLO does not carry it: mirrord and every pager (server.Client's
// callers, mirrorload, bench/) build from this module and ship together. A
// mirrord built while the bound was 64 refuses a larger limit with a
// protocol error.
const MaxScanKeys = (MaxFrame - responseMin) / pairLen

// MaxClients bounds the client id space a server will accept; it matches a
// practical engine descriptor-region size and keeps a garbage frame from
// addressing an absurd slot.
const MaxClients = 1 << 16

// ProtocolError describes a malformed frame. It is a terminal connection
// error: framing cannot resynchronize after a bad length prefix.
type ProtocolError struct {
	Reason string
	Err    error // the read error behind a truncated frame, else nil
}

func (e *ProtocolError) Error() string { return "wire: " + e.Reason }

// Unwrap returns the read error that cut the frame short, if any.
func (e *ProtocolError) Unwrap() error { return e.Err }

func protoErrf(format string, args ...any) error {
	return &ProtocolError{Reason: fmt.Sprintf(format, args...)}
}

// Request is one decoded client frame.
type Request struct {
	Op     Op
	Client uint32
	Seq    uint64
	Key    uint64
	Val    uint64
	// Arg is RMW's new value (the word beyond the fixed 29 bytes); always
	// zero for every other op.
	Arg uint64
}

// KV is one scan result pair.
type KV struct {
	Key uint64
	Val uint64
}

// Response is one decoded server frame.
type Response struct {
	Status  uint8
	Result  bool
	Known   bool
	Verdict uint8
	Rval    uint64
	Err     string
	// Pairs carries a SCAN's results (flags bit 2). Non-nil — possibly
	// empty — exactly on scan responses.
	Pairs []KV
}

// reqLen returns the exact payload length of op's frames.
func reqLen(op Op) uint32 {
	if op == OpRMW {
		return rmwRequestLen
	}
	return requestLen
}

// AppendRequest appends r's frame (length prefix included) to dst.
func AppendRequest(dst []byte, r Request) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, reqLen(r.Op))
	dst = append(dst, byte(r.Op))
	dst = binary.LittleEndian.AppendUint32(dst, r.Client)
	dst = binary.LittleEndian.AppendUint64(dst, r.Seq)
	dst = binary.LittleEndian.AppendUint64(dst, r.Key)
	dst = binary.LittleEndian.AppendUint64(dst, r.Val)
	if r.Op == OpRMW {
		dst = binary.LittleEndian.AppendUint64(dst, r.Arg)
	}
	return dst
}

// AppendResponse appends r's frame (length prefix included) to dst.
func AppendResponse(dst []byte, r Response) []byte {
	if r.Status != StatusError && r.Err != "" {
		panic("wire: error text on a non-error response")
	}
	if r.Pairs != nil && (r.Status != StatusOK || r.Err != "") {
		panic("wire: scan pairs on a non-OK response")
	}
	if len(r.Pairs) > MaxScanKeys {
		panic(fmt.Sprintf("wire: %d scan pairs exceed MaxScanKeys", len(r.Pairs)))
	}
	dst = binary.LittleEndian.AppendUint32(dst,
		uint32(responseMin+len(r.Err)+len(r.Pairs)*pairLen))
	dst = append(dst, r.Status)
	var flags byte
	if r.Result {
		flags |= 1
	}
	if r.Known {
		flags |= 2
	}
	if r.Pairs != nil {
		flags |= 4
	}
	dst = append(dst, flags, r.Verdict)
	dst = binary.LittleEndian.AppendUint64(dst, r.Rval)
	for _, kv := range r.Pairs {
		dst = binary.LittleEndian.AppendUint64(dst, kv.Key)
		dst = binary.LittleEndian.AppendUint64(dst, kv.Val)
	}
	return append(dst, r.Err...)
}

// DecodeRequest decodes one request payload (the bytes after the length
// prefix).
func DecodeRequest(p []byte) (Request, error) {
	if len(p) < 1 {
		return Request{}, protoErrf("empty request payload")
	}
	op := Op(p[0])
	if op == 0 || op >= opMax {
		return Request{}, protoErrf("unknown op %d", uint8(op))
	}
	if uint32(len(p)) != reqLen(op) {
		return Request{}, protoErrf("%s payload %d bytes, want %d", op, len(p), reqLen(op))
	}
	r := Request{
		Op:     op,
		Client: binary.LittleEndian.Uint32(p[1:]),
		Seq:    binary.LittleEndian.Uint64(p[5:]),
		Key:    binary.LittleEndian.Uint64(p[13:]),
		Val:    binary.LittleEndian.Uint64(p[21:]),
	}
	if op == OpRMW {
		r.Arg = binary.LittleEndian.Uint64(p[29:])
	}
	if r.Client >= MaxClients {
		return Request{}, protoErrf("client id %d out of range", r.Client)
	}
	switch {
	case r.Mutating() || op == OpDetect:
		// DETECT asks about one mutating seq, so it carries one too.
		if r.Seq == 0 {
			return Request{}, protoErrf("%s frame with seq 0", op)
		}
	default:
		// Non-mutating frames never consume sequence numbers; a nonzero
		// seq here is a confused client, not a replayable identity.
		if r.Seq != 0 {
			return Request{}, protoErrf("%s frame with nonzero seq %d", op, r.Seq)
		}
	}
	switch op {
	case OpScan:
		if r.Val == 0 {
			return Request{}, protoErrf("SCAN with limit 0")
		}
		if r.Val > MaxScanKeys {
			return Request{}, protoErrf("SCAN limit %d exceeds %d", r.Val, MaxScanKeys)
		}
	case OpHello:
		if r.Key != 0 {
			return Request{}, protoErrf("HELLO with nonzero key")
		}
		if r.Val == 0 {
			return Request{}, protoErrf("HELLO with window 0")
		}
	case OpStats:
		if r.Key != 0 || r.Val != 0 {
			return Request{}, protoErrf("STATS with nonzero key or value")
		}
	}
	return r, nil
}

// Mutating reports whether the request mutates durable state.
func (r Request) Mutating() bool { return r.Op.Mutating() }

// DecodeResponse decodes one response payload (the bytes after the length
// prefix).
func DecodeResponse(p []byte) (Response, error) {
	if len(p) < responseMin {
		return Response{}, protoErrf("response payload %d bytes, want >= %d", len(p), responseMin)
	}
	r := Response{
		Status:  p[0],
		Result:  p[1]&1 != 0,
		Known:   p[1]&2 != 0,
		Verdict: p[2],
		Rval:    binary.LittleEndian.Uint64(p[3:]),
	}
	if r.Status != StatusOK && r.Status != StatusError {
		return Response{}, protoErrf("unknown status %d", r.Status)
	}
	if p[1]&^byte(7) != 0 {
		return Response{}, protoErrf("reserved flag bits set: %#x", p[1])
	}
	if r.Verdict > 2 {
		return Response{}, protoErrf("unknown verdict %d", r.Verdict)
	}
	tail := p[responseMin:]
	switch {
	case p[1]&4 != 0:
		// Scan pairs ride OK responses only, in whole 16-byte units.
		if r.Status != StatusOK {
			return Response{}, protoErrf("scan pairs on a non-OK response")
		}
		if len(tail)%pairLen != 0 {
			return Response{}, protoErrf("scan tail %d bytes not a pair multiple", len(tail))
		}
		n := len(tail) / pairLen
		if n > MaxScanKeys {
			return Response{}, protoErrf("%d scan pairs exceed %d", n, MaxScanKeys)
		}
		r.Pairs = make([]KV, n)
		for i := range r.Pairs {
			r.Pairs[i] = KV{
				Key: binary.LittleEndian.Uint64(tail[i*pairLen:]),
				Val: binary.LittleEndian.Uint64(tail[i*pairLen+8:]),
			}
		}
	case len(tail) > 0:
		if r.Status != StatusError {
			return Response{}, protoErrf("trailing bytes on OK response")
		}
		r.Err = string(tail)
	}
	return r, nil
}

// ReadFrame reads one length-prefixed frame payload from rd into buf
// (grown as needed) and returns the payload slice. The prefix is read into
// buf too, so a caller that passes a buffer as large as its frames pays no
// allocation per frame. io.EOF is returned cleanly only at a frame boundary;
// a prefix beyond MaxFrame or a truncated payload is a *ProtocolError (one
// that unwraps to io.ErrUnexpectedEOF for mid-payload truncation).
func ReadFrame(rd io.Reader, buf []byte) ([]byte, error) {
	if cap(buf) < 4 {
		buf = make([]byte, 4)
	}
	if _, err := io.ReadFull(rd, buf[:4]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, protoErrf("truncated length prefix")
		}
		return nil, err
	}
	n := binary.LittleEndian.Uint32(buf[:4])
	if n == 0 || n > MaxFrame {
		return nil, protoErrf("frame length %d outside (0, %d]", n, MaxFrame)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if got, err := io.ReadFull(rd, buf); err != nil {
		if err == io.EOF { // the stream ended right after the prefix
			err = io.ErrUnexpectedEOF
		}
		return nil, &ProtocolError{
			Reason: fmt.Sprintf("truncated frame payload: %d of %d bytes", got, n),
			Err:    err,
		}
	}
	return buf, nil
}

// ReadRequest reads and decodes one request frame.
func ReadRequest(rd io.Reader, buf []byte) (Request, error) {
	p, err := ReadFrame(rd, buf)
	if err != nil {
		return Request{}, err
	}
	return DecodeRequest(p)
}

// ReadResponse reads and decodes one response frame.
func ReadResponse(rd io.Reader, buf []byte) (Response, error) {
	p, err := ReadFrame(rd, buf)
	if err != nil {
		return Response{}, err
	}
	return DecodeResponse(p)
}
