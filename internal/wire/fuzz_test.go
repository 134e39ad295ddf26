package wire

import (
	"bytes"
	"testing"
)

// FuzzFrame drives arbitrary bytes through the frame reader and both
// decoders. The invariants: no panic ever; a successful request decode
// round-trips byte-identically through AppendRequest (the encoding is
// canonical, so no two wire forms decode to the same request); a
// successful response decode round-trips through AppendResponse.
func FuzzFrame(f *testing.F) {
	f.Add(AppendRequest(nil, Request{Op: OpInsert, Client: 1, Seq: 1, Key: 7, Val: 70}))
	f.Add(AppendRequest(nil, Request{Op: OpGet, Key: 7}))
	f.Add(AppendRequest(nil, Request{Op: OpScan, Client: 2, Key: 10, Val: 16}))
	f.Add(AppendRequest(nil, Request{Op: OpRMW, Client: 3, Seq: 4, Key: 5, Val: 6, Arg: 7}))
	f.Add(AppendRequest(nil, Request{Op: OpHello, Client: 1, Val: 8}))
	f.Add(AppendResponse(nil, Response{Status: StatusOK, Result: true, Rval: 9}))
	f.Add(AppendResponse(nil, Response{Status: StatusError, Err: "nope"}))
	f.Add(AppendResponse(nil, Response{Status: StatusOK, Rval: 1, Pairs: []KV{{Key: 3, Val: 30}}}))
	full := make([]KV, MaxScanKeys)
	for i := range full {
		full[i] = KV{Key: uint64(i + 1), Val: uint64(i+1) << 40}
	}
	page := AppendResponse(nil, Response{Status: StatusOK, Rval: MaxScanKeys, Pairs: full})
	f.Add(page)     // a whole frame, for the stream reader
	f.Add(page[4:]) // its payload, for the decoders
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{4, 0, 0, 0, 1, 2})
	f.Add(make([]byte, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		// The stream reader: must terminate (bounded by input length),
		// never panic, and stop at the first error.
		rd := bytes.NewReader(data)
		var buf []byte
		for {
			p, err := ReadFrame(rd, buf)
			if err != nil {
				break
			}
			if len(p) == 0 || len(p) > MaxFrame {
				t.Fatalf("ReadFrame returned %d bytes outside (0, %d]", len(p), MaxFrame)
			}
			buf = p
		}

		// The decoders on the raw payload.
		if req, err := DecodeRequest(data); err == nil {
			enc := AppendRequest(nil, req)
			if !bytes.Equal(enc[4:], data) {
				t.Fatalf("request decode not canonical: %x -> %+v -> %x", data, req, enc[4:])
			}
		}
		if resp, err := DecodeResponse(data); err == nil {
			enc := AppendResponse(nil, resp)
			if !bytes.Equal(enc[4:], data) {
				t.Fatalf("response decode not canonical: %x -> %+v -> %x", data, resp, enc[4:])
			}
		}
	})
}
