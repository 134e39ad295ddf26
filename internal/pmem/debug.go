package pmem

import (
	"fmt"
	"sync/atomic"
)

// debugChecks gates the FlushSet contract assertions. It is a plain bool
// read on the flush/fence path, so the disabled cost is one predictable
// branch; tests enable it from an init function (or with all goroutines
// quiesced) so the write is ordered before every read.
var debugChecks bool

// EnableDebugChecks turns on the FlushSet misuse assertions: concurrent use
// of one FlushSet from two goroutines, and recycling a FlushSet across a
// crash while it still holds pre-crash pending flushes (a context must be
// Reset — or discarded — when the device it used crashes). Call it from an
// init function in tests; it is not meant for production paths.
func EnableDebugChecks() { debugChecks = true }

// DisableDebugChecks turns the assertions back off.
func DisableDebugChecks() { debugChecks = false }

// DebugChecksEnabled reports whether the assertions are active.
func DebugChecksEnabled() bool { return debugChecks }

// enter asserts single-owner use at the top of a Flush/Fence and that the
// set is not carrying pending lines across a crash generation.
func (s *FlushSet) enter(d *Device) {
	if !s.busy.CompareAndSwap(0, 1) {
		panic("pmem: FlushSet used concurrently from two goroutines")
	}
	g := d.gen.Load()
	if len(s.lines) > 0 && s.gen != g {
		panic("pmem: FlushSet recycled across a crash without Reset (stale pending flushes)")
	}
	s.gen = g
}

// exit releases the single-owner claim taken by enter.
func (s *FlushSet) exit() { s.busy.Store(0) }

// coldView records, for a device that adopted a media file while debug
// checks were on, which words of its current view hold the image: those
// recovery restored and those written since. Every other word reads zero
// where the media may still hold a dead object, so code that reads one is
// relying on memory the trace never reached — on a zero that a whole-image
// copy would not have given it. Such a read panics here instead.
type coldView struct{ held []atomic.Uint64 }

func newColdView(words int) *coldView {
	return &coldView{held: make([]atomic.Uint64, (words+63)/64)}
}

// hold records [off, off+n) as held.
func (v *coldView) hold(off uint64, n int) {
	for i := off; i < off+uint64(n); i++ {
		w, bit := &v.held[i/64], uint64(1)<<(i%64)
		for old := w.Load(); old&bit == 0 && !w.CompareAndSwap(old, old|bit); old = w.Load() {
		}
	}
}

// touchCold is a cold device's part of an access at off that reads `reads`
// words: it panics unless they are all held. A plain store (reads == 0)
// makes its word held.
func (d *Device) touchCold(off uint64, reads int) {
	if reads == 0 {
		d.cold.hold(off, 1)
		return
	}
	for i := off; i < off+uint64(reads); i++ {
		if d.cold.held[i/64].Load()&(1<<(i%64)) == 0 {
			panic(fmt.Sprintf("pmem: %s: word %d read, but recovery did not restore it and nothing has written it", d.name, i))
		}
	}
}
