package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
)

func TestRequestRoundTrip(t *testing.T) {
	reqs := []Request{
		{Op: OpGet, Client: 0, Seq: 0, Key: 42},
		{Op: OpInsert, Client: 3, Seq: 1, Key: 7, Val: 70},
		{Op: OpDelete, Client: 9, Seq: 1 << 40, Key: ^uint64(0)},
		{Op: OpEnqueue, Client: MaxClients - 1, Seq: 2, Val: 5},
		{Op: OpDequeue, Client: 1, Seq: 3},
		{Op: OpDetect, Client: 1, Seq: 3},
		{Op: OpScan, Client: 2, Key: 100, Val: MaxScanKeys},
		{Op: OpScan, Client: 2, Key: 1, Val: 1},
		{Op: OpRMW, Client: 4, Seq: 9, Key: 8, Val: 80, Arg: 81},
		{Op: OpHello, Client: 5, Val: 8},
		{Op: OpStats, Client: 6},
	}
	var stream []byte
	for _, r := range reqs {
		stream = AppendRequest(stream, r)
	}
	rd := bytes.NewReader(stream)
	var buf []byte
	for i, want := range reqs {
		got, err := ReadRequest(rd, buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("frame %d: %+v != %+v", i, got, want)
		}
	}
	if _, err := ReadRequest(rd, buf); err != io.EOF {
		t.Fatalf("stream end: %v, want io.EOF", err)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	resps := []Response{
		{Status: StatusOK, Result: true, Known: true, Rval: 99},
		{Status: StatusOK},
		{Status: StatusOK, Verdict: 1, Known: true, Result: true, Rval: 7},
		{Status: StatusError, Err: "bad op"},
		{Status: StatusOK, Rval: 2, Pairs: []KV{{Key: 1, Val: 10}, {Key: 2, Val: 20}}},
		{Status: StatusOK, Pairs: []KV{}}, // empty scan is still a scan
	}
	var stream []byte
	for _, r := range resps {
		stream = AppendResponse(stream, r)
	}
	rd := bytes.NewReader(stream)
	for i, want := range resps {
		got, err := ReadResponse(rd, nil)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d: %+v != %+v", i, got, want)
		}
	}
}

func TestDecodeRequestRejects(t *testing.T) {
	valid := AppendRequest(nil, Request{Op: OpInsert, Client: 1, Seq: 1, Key: 2, Val: 3})
	payload := valid[4:]

	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"short payload", func(p []byte) []byte { return p[:len(p)-1] }},
		{"long payload", func(p []byte) []byte { return append(p, 0) }},
		{"zero op", func(p []byte) []byte { p[0] = 0; return p }},
		{"unknown op", func(p []byte) []byte { p[0] = byte(opMax); return p }},
		{"mutating seq 0", func(p []byte) []byte {
			for i := 5; i < 13; i++ {
				p[i] = 0
			}
			return p
		}},
		{"client out of range", func(p []byte) []byte {
			binary.LittleEndian.PutUint32(p[1:], MaxClients)
			return p
		}},
		// RMW is the only 37-byte frame; a 29-byte RMW and a 37-byte
		// INSERT are both malformed.
		{"short RMW", func(p []byte) []byte { p[0] = byte(OpRMW); return p }},
		{"long INSERT", func(p []byte) []byte { return append(p, make([]byte, 8)...) }},
	}
	for _, tc := range cases {
		p := tc.mutate(append([]byte(nil), payload...))
		if _, err := DecodeRequest(p); err == nil {
			t.Errorf("%s: decoded without error", tc.name)
		} else {
			var pe *ProtocolError
			if !errors.As(err, &pe) {
				t.Errorf("%s: error %T, want *ProtocolError", tc.name, err)
			}
		}
	}
}

// TestDecodeRequestSeqConsistency pins the seq rules per op class:
// non-mutating frames (GET, SCAN, HELLO) must not carry a seq — they never
// consume sequence numbers, so a nonzero seq is a confused client; DETECT
// and every mutating op must carry one.
func TestDecodeRequestSeqConsistency(t *testing.T) {
	bad := []Request{
		{Op: OpGet, Client: 1, Seq: 5, Key: 2},
		{Op: OpScan, Client: 1, Seq: 5, Key: 2, Val: 4},
		{Op: OpHello, Client: 1, Seq: 5, Val: 8},
		{Op: OpStats, Client: 1, Seq: 5},
		{Op: OpDetect, Client: 1, Seq: 0},
		{Op: OpRMW, Client: 1, Seq: 0, Key: 2, Val: 3, Arg: 4},
	}
	for _, r := range bad {
		p := AppendRequest(nil, r)[4:]
		if _, err := DecodeRequest(p); err == nil {
			t.Errorf("%s seq %d: decoded without error", r.Op, r.Seq)
		}
	}
}

// TestDecodeRequestScanHelloRejects pins the op-specific field rules: a
// zero-limit or over-limit SCAN, a malformed HELLO and a STATS with a key
// or value are protocol errors.
func TestDecodeRequestScanHelloRejects(t *testing.T) {
	bad := []Request{
		{Op: OpScan, Client: 1, Key: 2, Val: 0},
		{Op: OpScan, Client: 1, Key: 2, Val: MaxScanKeys + 1},
		{Op: OpHello, Client: 1, Key: 7, Val: 8},
		{Op: OpHello, Client: 1, Val: 0},
		{Op: OpStats, Client: 1, Key: 1},
		{Op: OpStats, Client: 1, Val: 1},
	}
	for _, r := range bad {
		p := AppendRequest(nil, r)[4:]
		if _, err := DecodeRequest(p); err == nil {
			t.Errorf("%s key %d val %d: decoded without error", r.Op, r.Key, r.Val)
		}
	}
}

func TestDecodeResponseRejects(t *testing.T) {
	cases := map[string][]byte{
		"short":             make([]byte, responseMin-1),
		"zero status":       append([]byte{0, 0, 0}, make([]byte, 8)...),
		"unknown status":    append([]byte{9, 0, 0}, make([]byte, 8)...),
		"reserved flags":    append([]byte{StatusOK, 8, 0}, make([]byte, 8)...),
		"unknown verdict":   append([]byte{StatusOK, 0, 3}, make([]byte, 8)...),
		"trailing after OK": append([]byte{StatusOK, 0, 0}, make([]byte, 9)...),
		"pairs on error":    append([]byte{StatusError, 4, 0}, make([]byte, 8+pairLen)...),
		"ragged pair tail":  append([]byte{StatusOK, 4, 0}, make([]byte, 8+pairLen-1)...),
		"too many pairs":    append([]byte{StatusOK, 4, 0}, make([]byte, 8+(MaxScanKeys+1)*pairLen)...),
	}
	for name, p := range cases {
		if _, err := DecodeResponse(p); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

func TestReadFrameLimits(t *testing.T) {
	// Oversized length prefix: must error before allocating the payload.
	big := binary.LittleEndian.AppendUint32(nil, MaxFrame+1)
	if _, err := ReadFrame(bytes.NewReader(big), nil); err == nil {
		t.Error("oversized prefix accepted")
	}
	// Zero-length frame.
	zero := binary.LittleEndian.AppendUint32(nil, 0)
	if _, err := ReadFrame(bytes.NewReader(zero), nil); err == nil {
		t.Error("zero-length frame accepted")
	}
	// Truncated mid-prefix and mid-payload.
	if _, err := ReadFrame(strings.NewReader("\x05"), nil); err == nil {
		t.Error("truncated prefix accepted")
	}
	trunc := binary.LittleEndian.AppendUint32(nil, 10)
	trunc = append(trunc, 1, 2, 3)
	_, err := ReadFrame(bytes.NewReader(trunc), nil)
	var pe *ProtocolError
	if !errors.As(err, &pe) || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated payload: %v, want a *ProtocolError wrapping io.ErrUnexpectedEOF", err)
	} else if !strings.Contains(pe.Reason, "3 of 10 bytes") {
		t.Errorf("truncated payload reports %q, want the real count (3 of 10 bytes)", pe.Reason)
	}
	// A stream that ends right after the prefix is the same fault, not a
	// clean EOF.
	if _, err := ReadFrame(bytes.NewReader(trunc[:4]), nil); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("payload missing entirely: %v, want io.ErrUnexpectedEOF", err)
	}
	// Clean EOF only at a frame boundary.
	if _, err := ReadFrame(bytes.NewReader(nil), nil); err != io.EOF {
		t.Errorf("empty stream: %v, want io.EOF", err)
	}
	// The biggest legal scan response fits under MaxFrame.
	pairs := make([]KV, MaxScanKeys)
	frame := AppendResponse(nil, Response{Status: StatusOK, Rval: MaxScanKeys, Pairs: pairs})
	if len(frame)-4 > MaxFrame {
		t.Errorf("max scan response %d bytes exceeds MaxFrame %d", len(frame)-4, MaxFrame)
	}
	if _, err := ReadResponse(bytes.NewReader(frame), nil); err != nil {
		t.Errorf("max scan response rejected: %v", err)
	}
}

// TestReadAllocatesNothing pins the per-frame cost of the read side: given a
// buffer as large as the frame, neither direction allocates — the length
// prefix is read into the caller's buffer, not into an escaping array.
func TestReadAllocatesNothing(t *testing.T) {
	req := AppendRequest(nil, Request{Op: OpInsert, Client: 3, Seq: 9, Key: 7, Val: 70})
	resp := AppendResponse(nil, Response{Status: StatusOK, Result: true, Known: true, Verdict: 1, Rval: 70})
	buf := make([]byte, 64)
	rd := bytes.NewReader(nil)
	if n := testing.AllocsPerRun(100, func() {
		rd.Reset(req)
		if _, err := ReadRequest(rd, buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ReadRequest: %v allocations per frame, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		rd.Reset(resp)
		if _, err := ReadResponse(rd, buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ReadResponse: %v allocations per frame, want 0", n)
	}
}
