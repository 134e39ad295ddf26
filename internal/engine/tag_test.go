package engine

import (
	"path/filepath"
	"strings"
	"testing"

	"mirror/internal/pmem"
)

// tagChain is the smallest structure a tagged mark can live in: root field
// 0 links a, a links b, and b's link is 0. Each node is two cells — a value
// (field 0) and a link (field 1) whose low bit marks the node deleted and
// whose bits from TagShift up may carry a tag — so a node's cells share one
// cache line, like a skip-list node's value and level-0 link.
type tagChain struct {
	e    *mirrorEngine
	a, b Ref
}

const (
	chainVal  = 0
	chainNext = 1
)

func newTagChain(t *testing.T, cfg Config) *tagChain {
	t.Helper()
	e := New(cfg).(*mirrorEngine)
	c := e.NewCtx()
	ch := &tagChain{e: e}
	e.OpBegin(c)
	ch.b = e.Alloc(c, 2)
	e.StoreInit(c, ch.b, chainVal, 20)
	e.StoreInit(c, ch.b, chainNext, 0)
	e.Publish(c, ch.b)
	ch.a = e.Alloc(c, 2)
	e.StoreInit(c, ch.a, chainVal, 10)
	e.StoreInit(c, ch.a, chainNext, ch.b)
	e.Publish(c, ch.a)
	e.Store(c, Root, 0, ch.a)
	e.OpEnd(c)
	e.Drain(c)
	return ch
}

// tracer walks the chain, marked nodes included, reading only cells.
func (ch *tagChain) tracer() Tracer {
	return func(read func(Ref, int) uint64, visit func(Ref, int, int), _ func(Ref, int, uint64)) {
		for n := read(Root, 0); n != 0; n = read(n, chainNext) &^ (1 | ^uint64(0)>>TagShift<<TagShift) {
			visit(n, 2, 0)
		}
	}
}

// installInRepP installs w in the link of b on rep_p only: an owner that
// stalled between its install and its fence.
func (ch *tagChain) installInRepP(t *testing.T, w uint64) {
	t.Helper()
	off := mirrorAddr(ch.b, chainNext)
	pv, ps := ch.e.mem.P.LoadPair(off)
	if ok, _, _ := ch.e.mem.P.DWCAS(off, pv, ps, w, ps+1); !ok {
		t.Fatal("rep_p install failed")
	}
}

// snipB unlinks b from a the way a search snips a marked node — a relaxed
// CAS whose line the drain commits — and reports whether it could.
func (ch *tagChain) snipB() bool {
	c := ch.e.NewCtx()
	ok := ch.e.CASRelaxed(c, ch.a, chainNext, ch.b, 0)
	ch.e.Drain(c)
	return ok
}

// crashAndDetect crashes under CrashDropAll — every line no fence
// committed is lost — recovers through the chain's tracer, and returns
// whether b survived in a's link and the verdict of (0, 1).
func (ch *tagChain) crashAndDetect() (linked bool, v Verdict) {
	e := ch.e
	e.Freeze()
	e.Crash(pmem.CrashDropAll, nil)
	e.Recover(ch.tracer())
	c := e.NewCtx()
	return e.Load(c, ch.a, chainNext) == ch.b, e.Detect(0, 1).Verdict
}

// TestHelpedTagPersistsItsAnnounce is O2: a helper that mirrors a tagged
// mark into rep_v persists the announce line the tag names first. The
// owner installs the mark in rep_p and stalls before its fence; a second
// context's CAS on the same link helps the mark into rep_v; a third sees
// the node marked and snips it, durably. The crash then keeps the mark's
// effect — b is gone — but not the mark, and of the owner nothing it did
// not fence: only the helper's persist of the announce tells Detect that
// the delete may have happened.
func TestHelpedTagPersistsItsAnnounce(t *testing.T) {
	ch := newTagChain(t, Config{Kind: MirrorDRAM, Words: 1 << 14, Track: true, Clients: 1})
	e := ch.e
	owner := e.NewCtx()
	e.DetectBeginDeferred(owner, 0, 1, DetectDelete, 20, 0)
	mark := 1 | e.desc.tag(0, 1)<<TagShift
	ch.installInRepP(t, mark)

	helper := e.NewCtx()
	if e.CAS(helper, ch.b, chainNext, 0, ch.a) {
		t.Fatal("the helper's CAS succeeded over an installed mark")
	}
	if got := e.Load(helper, ch.b, chainNext); got != mark {
		t.Fatalf("b's link reads %#x after the help, want the mark %#x", got, mark)
	}
	if !ch.snipB() {
		t.Fatal("the snip of the marked node failed")
	}
	linked, v := ch.crashAndDetect()
	if linked {
		t.Fatal("the crash lost the durable snip: nothing to test")
	}
	if v == NotCommitted {
		t.Fatal("the delete took effect but reads NotCommitted: the helper mirrored a tagged mark without persisting its announce")
	}
}

// TestTaggedInstallFencesItsAnnounce is O1: an owner's tagged install ends
// in a real fence on its own flush set, which commits the armed announce,
// even when another context's fence of the same line has already committed
// the mark — here a CAS on b's value cell, run in the window between the
// owner's install and its persistence step. Eliding on the watermark there
// would leave the announce armed while the mark becomes visible and is
// snipped.
func TestTaggedInstallFencesItsAnnounce(t *testing.T) {
	ch := newTagChain(t, Config{Kind: MirrorDRAM, Words: 1 << 14, Track: true, Clients: 1})
	e := ch.e
	owner, other := e.NewCtx(), e.NewCtx()
	e.DetectBeginDeferred(owner, 0, 1, DetectDelete, 20, 0)
	link := mirrorAddr(ch.b, chainNext)
	interfered := false
	e.mem.OnInstallForTest(func(off uint64) bool {
		if off != link || interfered {
			return false
		}
		interfered = true
		if !e.CAS(other, ch.b, chainVal, 20, 21) {
			t.Error("the same-line CAS on b's value failed")
		}
		return false
	})
	_, f0 := e.Counters()
	if !e.CAS(owner, ch.b, chainNext, 0, 1|owner.MarkTag()) {
		t.Fatal("the tagged install failed")
	}
	e.mem.OnInstallForTest(nil)
	if !interfered {
		t.Fatal("no fence of the same line ran inside the owner's install: nothing to test")
	}
	if _, f1 := e.Counters(); f1-f0 != 2 {
		t.Errorf("the install and the same-line CAS issued %d fences, want 2 (one each; no barrier fence)", f1-f0)
	}
	if !ch.snipB() {
		t.Fatal("the snip of the marked node failed")
	}
	linked, v := ch.crashAndDetect()
	if linked {
		t.Fatal("the crash lost the durable snip: nothing to test")
	}
	if v == NotCommitted {
		t.Fatal("the delete took effect but reads NotCommitted: the owner elided its fence for a tagged install")
	}
}

// TestRecoveredTagReadsUnknown is O3 on both recovery paths: the mark is
// on the media — another context's fence of its line committed it while
// the owner stalled before its own — and the announce is not. The node is
// still reachable, so recovery reads its tag, and Detect answers Unknown
// where the descriptor alone would say NotCommitted; a seq the tag does not
// name still reads NotCommitted. Warm recovers after a simulated crash,
// Attach adopts the abandoned media file.
func TestRecoveredTagReadsUnknown(t *testing.T) {
	for _, attach := range []bool{false, true} {
		name := "Warm"
		if attach {
			name = "Attach"
		}
		t.Run(name, func(t *testing.T) {
			cfg := Config{Kind: MirrorDRAM, Words: 1 << 14, Track: true, Clients: 1}
			if attach {
				cfg.MediaPath = filepath.Join(t.TempDir(), "media.img")
			}
			ch := newTagChain(t, cfg)
			e := ch.e
			owner := e.NewCtx()
			e.DetectBeginDeferred(owner, 0, 1, DetectDelete, 20, 0)
			mark := 1 | e.desc.tag(0, 1)<<TagShift
			ch.installInRepP(t, mark)
			if !e.CAS(e.NewCtx(), ch.b, chainVal, 20, 21) {
				t.Fatal("the same-line CAS on b's value failed")
			}
			if attach {
				// The process dies here: no Freeze, no Crash.
				cfg.Attach = true
				e = New(cfg).(*mirrorEngine)
			} else {
				e.Freeze()
				e.Crash(pmem.CrashDropAll, nil)
			}
			e.Recover(ch.tracer())
			c := e.NewCtx()
			if got := e.Load(c, ch.b, chainNext); got != mark {
				t.Fatalf("b's recovered link is %#x, want the mark %#x", got, mark)
			}
			if v := e.Detect(0, 1).Verdict; v != Unknown {
				t.Errorf("a deleted node's tag on the media reads %v, want Unknown", v)
			}
			if v := e.Detect(0, 2).Verdict; v != NotCommitted {
				t.Errorf("a seq no tag names reads %v, want NotCommitted", v)
			}
		})
	}
}

// TestTagEncoding is O5: a tag is nonzero, lies above every Ref a valid
// config allows, names its entry's announce line, and tells a seq from the
// seqs a lap or two away that share its entry.
func TestTagEncoding(t *testing.T) {
	cfg := Config{Kind: MirrorDRAM, Words: 1 << 16, Clients: 3, DetectRing: 5}
	cfg.SetDefaults()
	e := New(cfg).(*mirrorEngine)
	r := e.desc
	seen := map[uint64]bool{}
	for client := 0; client < cfg.Clients; client++ {
		for seq := uint64(1); seq <= 3*uint64(cfg.DetectRing); seq++ {
			tag := r.tag(client, seq)
			if tag == 0 || tag>>(64-TagShift) != 0 {
				t.Fatalf("(%d, %d): tag %#x outside [1, 2^%d)", client, seq, tag, 64-TagShift)
			}
			if seen[tag] {
				t.Fatalf("(%d, %d): tag %#x names another operation too", client, seq, tag)
			}
			seen[tag] = true
			if w, _ := r.witness(tag<<TagShift | 1); w != r.entry(client, seq) {
				t.Fatalf("(%d, %d): the tag names word %d, want its entry %d", client, seq, w, r.entry(client, seq))
			}
		}
	}
	if w, _ := r.witness(uint64(cfg.Words) - 1); w != 0 {
		t.Errorf("an untagged word names word %d", w)
	}
	for _, bad := range []Config{
		{Kind: MirrorDRAM, Words: MaxWords + 1},
		{Kind: MirrorDRAM, Words: 1 << 30, Clients: maxTagEntries/MaxDetectRing + 1, DetectRing: MaxDetectRing},
	} {
		if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "tag") {
			t.Errorf("%+v: Validate says %v, want a refusal a tag cannot serve", bad, err)
		}
	}
}
