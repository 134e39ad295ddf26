package engine

import (
	"testing"

	"mirror/internal/pmem"
)

func newDescDevice(t *testing.T) *pmem.Device {
	t.Helper()
	return pmem.New(pmem.Config{
		Name: "desc-test", Words: 1 << 12, Persistent: true, Track: true,
	})
}

// TestDescRegionTruthTable walks one client slot through the announce →
// verdict → supersede lifecycle and pins the Detect answer at each step.
func TestDescRegionTruthTable(t *testing.T) {
	dev := newDescDevice(t)
	r := newDescRegion(dev, pmem.WordsPerLine, 2, 1, true)
	var fs pmem.FlushSet

	if v := r.Detect(0, 1); v.Verdict != NotCommitted {
		t.Fatalf("fresh slot: %+v, want NotCommitted", v)
	}
	r.arm(&fs, 0, 1, DetectInsert, 5, 50)
	dev.Fence(&fs)
	if v := r.Detect(0, 1); v.Verdict != Unknown {
		t.Fatalf("announced, no verdict: %+v, want Unknown", v)
	}
	r.publish(&fs, 0, verdictLine{seq: 1, result: true})
	r.End(&fs)
	if v := r.Detect(0, 1); v.Verdict != Committed || !v.KnownResult || !v.Result {
		t.Fatalf("published true: %+v, want Committed/known/true", v)
	}
	if v := r.Detect(0, 2); v.Verdict != NotCommitted {
		t.Fatalf("future seq: %+v, want NotCommitted", v)
	}
	if v := r.Detect(1, 1); v.Verdict != NotCommitted {
		t.Fatalf("other client: %+v, want NotCommitted", v)
	}

	// A later announce supersedes the slot; seq 1's verdict line is still
	// intact at this point, so its result remains readable.
	r.arm(&fs, 0, 2, DetectDelete, 5, 0)
	dev.Fence(&fs)
	if v := r.Detect(0, 1); v.Verdict != Committed {
		t.Fatalf("superseded seq mid-op: %+v, want Committed", v)
	}
	if v := r.Detect(0, 2); v.Verdict != Unknown {
		t.Fatalf("in-flight seq 2: %+v, want Unknown", v)
	}
	r.publish(&fs, 0, verdictLine{seq: 2})
	r.End(&fs)
	if v := r.Detect(0, 2); v.Verdict != Committed || !v.KnownResult || v.Result {
		t.Fatalf("published false: %+v, want Committed/known/false", v)
	}
	// Now seq 1's verdict is overwritten: still provably committed (a later
	// op from the same client announced), but its result is gone.
	if v := r.Detect(0, 1); v.Verdict != Committed || v.KnownResult {
		t.Fatalf("superseded seq: %+v, want Committed without known result", v)
	}

	// The region counts announces; verdicts are the detector's to count,
	// since one line may carry several.
	var st Stats
	r.stats(&st)
	if ann, ver := st.DetectAnnounces, st.DetectVerdicts; ann != 2 || ver != 0 {
		t.Errorf("counters = (%d, %d), want (2, 0)", st.DetectAnnounces, st.DetectVerdicts)
	}
}

// TestDescRingTruthTable walks a 4-entry ring through a pipelined window
// and pins every ring-specific Detect inference: per-entry verdicts, the
// entry-lap proof, the sibling-verdict proof, and the refusal to trust a
// sibling announce alone.
func TestDescRingTruthTable(t *testing.T) {
	const ring = 4
	dev := newDescDevice(t)
	r := newDescRegion(dev, pmem.WordsPerLine, 1, ring, true)
	var fs pmem.FlushSet

	// A pipelined window: three announces in flight, no verdicts yet.
	for seq := uint64(1); seq <= 3; seq++ {
		r.arm(&fs, 0, seq, DetectInsert, seq, seq*10)
		dev.Fence(&fs)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if v := r.Detect(0, seq); v.Verdict != Unknown {
			t.Fatalf("in-flight seq %d: %+v, want Unknown", seq, v)
		}
	}
	if v := r.Detect(0, 4); v.Verdict != NotCommitted {
		t.Fatalf("never-announced seq 4: %+v, want NotCommitted", v)
	}
	if v := r.Detect(0, 0); v.Verdict != NotCommitted {
		t.Fatalf("seq 0: %+v, want NotCommitted", v)
	}

	// Drain: all three verdicts publish, each into its own entry.
	for seq := uint64(1); seq <= 3; seq++ {
		r.publish(&fs, 0, verdictLine{seq: seq, result: true, rval: seq * 100})
	}
	r.End(&fs)
	for seq := uint64(1); seq <= 3; seq++ {
		v := r.Detect(0, seq)
		if v.Verdict != Committed || !v.KnownResult || v.Rval != seq*100 {
			t.Fatalf("drained seq %d: %+v, want Committed/known/rval %d", seq, v, seq*100)
		}
	}

	// Seq 5 laps entry 0 (= seq 1's). With the announce overwritten and the
	// old verdict line dropped by a crash, seq 1 is still provably
	// committed: the entry moved a whole lap, so its response was released.
	r.arm(&fs, 0, 5, DetectDelete, 1, 0)
	dev.Fence(&fs)
	e0 := r.entry(0, 1)
	for w := uint64(dVerdict); w <= dVerChk; w++ {
		dev.WriteRaw(e0+w, 0)
	}
	if v := r.Detect(0, 1); v.Verdict != Committed || v.KnownResult {
		t.Fatalf("lapped seq 1: %+v, want Committed without known result", v)
	}

	// Sibling-verdict proof: seq 2's verdict line dropped, but entry 2
	// still holds seq 3's durable verdict (> 2) — committed, result gone.
	e1 := r.entry(0, 2)
	for w := uint64(dVerdict); w <= dVerChk; w++ {
		dev.WriteRaw(e1+w, 0)
	}
	if v := r.Detect(0, 2); v.Verdict != Committed || v.KnownResult {
		t.Fatalf("sibling-verdict seq 2: %+v, want Committed without known result", v)
	}

	// A sibling announce alone proves nothing: with every verdict line in
	// the ring gone, an announced seq is honestly Unknown even though later
	// announces (seq 3, seq 5) sit beside it.
	for i := uint64(0); i < ring; i++ {
		base := r.Base + i*descSlotWords
		for w := uint64(dVerdict); w <= dVerChk; w++ {
			dev.WriteRaw(base+w, 0)
		}
	}
	if v := r.Detect(0, 2); v.Verdict != Unknown {
		t.Fatalf("announce-only seq 2 with sibling announces: %+v, want Unknown", v)
	}
}

// TestDescRegionDequeueRval pins the returned-value channel: a Committed
// dequeue's verdict carries the dequeued value.
func TestDescRegionDequeueRval(t *testing.T) {
	dev := newDescDevice(t)
	r := newDescRegion(dev, pmem.WordsPerLine, 1, 1, true)
	var fs pmem.FlushSet
	r.arm(&fs, 0, 1, DetectDequeue, 0, 0)
	dev.Fence(&fs)
	r.publish(&fs, 0, verdictLine{seq: 1, result: true, rval: 77})
	r.End(&fs)
	if v := r.Detect(0, 1); v.Verdict != Committed || !v.KnownResult || v.Rval != 77 {
		t.Fatalf("dequeue verdict = %+v, want Committed with Rval 77", v)
	}
}

// TestDescRegionCrashSurvival checks durability edges across a drop-all
// crash: a fenced announce+verdict survives; an announce armed but never
// fenced is dropped entirely (NotCommitted — sound, since the operation body
// never ran a fence either).
func TestDescRegionCrashSurvival(t *testing.T) {
	dev := newDescDevice(t)
	r := newDescRegion(dev, pmem.WordsPerLine, 2, 1, true)
	var fs pmem.FlushSet
	r.arm(&fs, 0, 1, DetectInsert, 5, 50)
	dev.Fence(&fs)
	r.publish(&fs, 0, verdictLine{seq: 1, result: true})
	r.End(&fs)
	r.arm(&fs, 1, 1, DetectInsert, 6, 60) // armed, never fenced
	dev.Freeze()
	dev.Crash(pmem.CrashDropAll, nil)
	r.Scrub()
	if v := r.Detect(0, 1); v.Verdict != Committed || !v.KnownResult || !v.Result {
		t.Errorf("fenced op after crash: %+v, want Committed/known/true", v)
	}
	if v := r.Detect(1, 1); v.Verdict != NotCommitted {
		t.Errorf("unfenced announce after crash: %+v, want NotCommitted", v)
	}
}

// TestDescRegionScrubTornLines corrupts the announce and verdict lines and
// checks that Scrub rejects them (checksums), zeroes them durably, and is
// idempotent.
func TestDescRegionScrubTornLines(t *testing.T) {
	dev := newDescDevice(t)
	r := newDescRegion(dev, pmem.WordsPerLine, 1, 1, true)
	var fs pmem.FlushSet
	r.arm(&fs, 0, 3, DetectInsert, 5, 50)
	dev.Fence(&fs)
	r.publish(&fs, 0, verdictLine{seq: 3, result: true})
	r.End(&fs)
	// Tear both lines: flip a payload word without updating the checksums.
	slot := uint64(pmem.WordsPerLine)
	dev.WriteRaw(slot+2, 999)  // announce key word
	dev.WriteRaw(slot+9, 1234) // verdict rval word
	r.Scrub()
	for w := uint64(0); w < descSlotWords; w++ {
		if got := dev.ReadRaw(slot + w); got != 0 {
			t.Fatalf("slot word %d = %d after scrub, want 0", w, got)
		}
	}
	if v := r.Detect(0, 3); v.Verdict != NotCommitted {
		t.Errorf("scrubbed slot: %+v, want NotCommitted", v)
	}
	before := dev.MediaHash()
	r.Scrub()
	if dev.MediaHash() != before {
		t.Error("second Scrub changed the media image")
	}
}

// TestNewDescRegionMisuse pins the constructor's contract checks.
func TestNewDescRegionMisuse(t *testing.T) {
	dev := newDescDevice(t)
	for name, f := range map[string]func(){
		"unaligned base": func() { newDescRegion(dev, pmem.WordsPerLine+1, 1, 1, true) },
		"zero clients":   func() { newDescRegion(dev, pmem.WordsPerLine, 0, 1, true) },
		"zero ring":      func() { newDescRegion(dev, pmem.WordsPerLine, 1, 0, true) },
		"ring too deep":  func() { newDescRegion(dev, pmem.WordsPerLine, 1, MaxDetectRing+1, true) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}
