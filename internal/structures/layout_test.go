package structures_test

import (
	"testing"

	"mirror/internal/engine"
	"mirror/internal/palloc"
	"mirror/internal/structures/bst"
	"mirror/internal/structures/list"
	"mirror/internal/structures/queue"
	"mirror/internal/structures/skiplist"
)

// TestNodeLayoutWords pins what one node costs per replica. On Mirror only
// the mutable fields are 16-byte cells; the write-once and rebuilt ones are
// 8-byte plain words, so a skip-list tower of height h is 5+h words — 8, 8,
// 8 and 12 after class rounding for heights 1 to 4 — and a list node 4 (its
// next cell, key and value). The direct engines give every field one word.
func TestNodeLayoutWords(t *testing.T) {
	type node struct {
		name         string
		size, fields int
		mirror       uint64
	}
	nodes := []node{
		{"skiplist h=1", skiplist.NodeFields(1), 4, 8},
		{"skiplist h=2", skiplist.NodeFields(2), 5, 8},
		{"skiplist h=3", skiplist.NodeFields(3), 6, 8},
		{"skiplist h=4", skiplist.NodeFields(4), 7, 12},
		{"skiplist head", skiplist.NodeFields(skiplist.MaxLevel), 3 + skiplist.MaxLevel, 24},
		{"list", list.NodeFields, 3, 4},
		{"bst", bst.NodeFields, 4, 8},
		{"queue", queue.NodeFields, 2, 4},
	}
	for _, kind := range engine.Kinds() {
		e := engine.New(engine.Config{Kind: kind, Words: 1 << 16})
		c := e.NewCtx()
		for _, n := range nodes {
			e.OpBegin(c)
			w0, _ := e.Footprint()
			ref := e.Alloc(c, n.size)
			w1, _ := e.Footprint()
			e.FreeUnpublished(c, ref, n.size)
			e.OpEnd(c)
			want := uint64(palloc.ClassSize(n.fields))
			if kind == engine.MirrorDRAM || kind == engine.MirrorNVMM {
				want = n.mirror
			}
			if got := w1 - w0; got != want {
				t.Errorf("%v: a %s node takes %d words per replica, want %d", kind, n.name, got, want)
			}
		}
	}
}
