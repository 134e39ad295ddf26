package list

import (
	"testing"

	"mirror/internal/engine"
	"mirror/internal/structures"
)

// White-box tests staging the Harris list's marked-node intermediate
// states (a delete that marked its node and stalled before unlinking).

func newWB(t *testing.T) (engine.Engine, *engine.Ctx, *List) {
	t.Helper()
	e := engine.New(engine.Config{Kind: engine.MirrorDRAM, Words: 1 << 18, Track: true})
	c := e.NewCtx()
	return e, c, New(e, 0)
}

// plantMark marks key's node without unlinking it.
func plantMark(e engine.Engine, c *engine.Ctx, l *List, key uint64) {
	_, _, curr := l.find(c, key)
	if curr == 0 || e.Load(c, curr, FieldKey) != key {
		panic("plantMark: key not found")
	}
	next := e.Load(c, curr, FieldNext)
	if !e.CAS(c, curr, FieldNext, next, structures.Mark(next)) {
		panic("plantMark: CAS failed")
	}
}

func TestMarkedNodeIsAbsent(t *testing.T) {
	e, c, l := newWB(t)
	for k := uint64(1); k <= 10; k++ {
		l.Insert(c, k, k)
	}
	plantMark(e, c, l, 5)
	if l.Contains(c, 5) {
		t.Fatal("marked node reported present")
	}
	if l.Len(c) != 9 {
		t.Fatalf("Len = %d, want 9", l.Len(c))
	}
}

func TestFindUnlinksMarkedNode(t *testing.T) {
	e, c, l := newWB(t)
	for k := uint64(1); k <= 10; k++ {
		l.Insert(c, k, k)
	}
	plantMark(e, c, l, 5)
	// Any find through the region physically unlinks the marked node.
	_, _, curr := l.find(c, 5)
	if curr != 0 && e.Load(c, curr, FieldKey) == 5 {
		t.Fatal("find did not unlink the marked node")
	}
	if !l.Insert(c, 5, 99) {
		t.Fatal("re-insert after unlink failed")
	}
	if v, _ := l.Get(c, 5); v != 99 {
		t.Fatalf("value = %d, want 99", v)
	}
}

func TestDeleteOfMarkedNodeReportsAbsent(t *testing.T) {
	e, c, l := newWB(t)
	l.Insert(c, 7, 7)
	plantMark(e, c, l, 7)
	if l.Delete(c, 7) {
		t.Fatal("delete of already-marked node should report absent")
	}
	if l.Len(c) != 0 {
		t.Fatalf("Len = %d, want 0", l.Len(c))
	}
}

func TestInsertAfterMarkedPredecessor(t *testing.T) {
	// Insert whose predecessor gets marked: the insert's CAS on the
	// marked slot must fail and retry through a fresh find.
	e, c, l := newWB(t)
	l.Insert(c, 10, 10)
	l.Insert(c, 30, 30)
	plantMark(e, c, l, 10)
	if !l.Insert(c, 20, 20) {
		t.Fatal("insert after marked predecessor failed")
	}
	keys := l.Keys(c)
	want := []uint64{20, 30}
	if len(keys) != len(want) || keys[0] != want[0] || keys[1] != want[1] {
		t.Fatalf("Keys = %v, want %v", keys, want)
	}
}
