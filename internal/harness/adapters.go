// Package harness regenerates the paper's evaluation: every panel of
// Figure 6 (volatile replica on DRAM) and Figure 7 (both replicas on NVMM)
// is a Panel spec that builds the competitors, prefills them to half the
// key range, and prices each point with a counted pass: exact device
// counts × the DRAM/NVMM cost tables. TestPaperClaims asserts the paper's
// claims on the resulting tables.
package harness

import (
	"fmt"

	"mirror/internal/cmapkv"
	"mirror/internal/engine"
	"mirror/internal/pmem"
	"mirror/internal/structures"
	"mirror/internal/structures/bst"
	"mirror/internal/structures/hashtable"
	"mirror/internal/structures/list"
	"mirror/internal/structures/skiplist"
	"mirror/internal/workload"
	"mirror/internal/zuriel"
)

// Structure names used by panels.
const (
	StList     = "list"
	StHash     = "hashtable"
	StBST      = "bst"
	StSkipList = "skiplist"
)

// Competitor builds one line of a panel.
type Competitor struct {
	Label string
	// Make creates a fresh instance sized for a key range and returns
	// the workload target driving it and the devices it runs on.
	Make func(keyRange int) (workload.Target, []*pmem.Device)
}

// engineWorker adapts a structures.Set to workload.Worker.
type engineWorker struct {
	set structures.Set
	c   *engine.Ctx
}

func (w *engineWorker) Insert(key, val uint64) bool { return w.set.Insert(w.c, key, val) }
func (w *engineWorker) Delete(key uint64) bool      { return w.set.Delete(w.c, key) }
func (w *engineWorker) Contains(key uint64) bool    { return w.set.Contains(w.c, key) }

// deviceWords sizes the engine devices for a structure holding up to
// keyRange live keys, with slack for class rounding, churn, and epochs.
func deviceWords(structure string, kind engine.Kind, keyRange int) int {
	cellW := 1
	if kind == engine.MirrorDRAM || kind == engine.MirrorNVMM {
		cellW = 2
	}
	var perKey int
	switch structure {
	case StList:
		perKey = 4 * cellW // 3 fields rounded
	case StHash:
		perKey = 4*cellW + 2*cellW // node + bucket-array share
	case StBST:
		perKey = 2 * 4 * cellW // leaf + internal
	case StSkipList:
		perKey = 8 * cellW // avg tower height 2, 5 fields rounded
	default:
		panic("harness: unknown structure " + structure)
	}
	words := keyRange*perKey*3 + 1<<18
	if words < 1<<20 {
		words = 1 << 20
	}
	return words
}

// bucketsFor picks the hash bucket count for a key range (short chains).
func bucketsFor(keyRange int) int {
	b := 1
	for b < keyRange/2 {
		b <<= 1
	}
	return b
}

// newSet builds one structure on e at its default root fields.
func newSet(structure string, e engine.Engine, c *engine.Ctx, keyRange int) structures.Set {
	switch structure {
	case StList:
		return list.New(e, 0)
	case StHash:
		return hashtable.New(e, c, bucketsFor(keyRange))
	case StBST:
		return bst.New(e, c)
	case StSkipList:
		return skiplist.New(e, c)
	}
	panic("harness: unknown structure " + structure)
}

// engineCompetitor builds one structure under one engine.
func engineCompetitor(kind engine.Kind, structure string) Competitor {
	return Competitor{
		Label: kind.String(),
		Make: func(keyRange int) (workload.Target, []*pmem.Device) {
			e := engine.New(engine.Config{
				Kind:  kind,
				Words: deviceWords(structure, kind, keyRange),
				Track: false, // panels never crash
			})
			set := newSet(structure, e, e.NewCtx(), keyRange)
			return workload.Target{
				Name:          fmt.Sprintf("%s/%s", structure, kind),
				SortedPrefill: structure == StList,
				NewWorker: func() workload.Worker {
					return &engineWorker{set: set, c: e.NewCtx()}
				},
			}, e.Devices()
		},
	}
}

// zurielWorker adapts a zuriel.Set.
type zurielWorker struct {
	set zuriel.Set
	c   *zuriel.Ctx
}

func (w *zurielWorker) Insert(key, val uint64) bool { return w.set.Insert(w.c, key, val) }
func (w *zurielWorker) Delete(key uint64) bool      { return w.set.Delete(w.c, key) }
func (w *zurielWorker) Contains(key uint64) bool    { return w.set.Contains(w.c, key) }

// zurielCompetitor builds Link-Free or SOFT (hashed when the structure is
// a hash table).
func zurielCompetitor(soft bool, structure string) Competitor {
	label := "LinkFree"
	if soft {
		label = "SOFT"
	}
	return Competitor{
		Label: label,
		Make: func(keyRange int) (workload.Target, []*pmem.Device) {
			buckets := 0
			if structure == StHash {
				buckets = bucketsFor(keyRange)
			}
			words := keyRange*4*4 + buckets + 1<<18
			if words < 1<<20 {
				words = 1 << 20
			}
			cfg := zuriel.Config{Words: words, Buckets: buckets}
			var s zuriel.Set
			if soft {
				s = zuriel.NewSoft(cfg)
			} else {
				s = zuriel.NewLinkFree(cfg)
			}
			return workload.Target{
				Name:          fmt.Sprintf("%s/%s", structure, label),
				SortedPrefill: structure == StList,
				NewWorker: func() workload.Worker {
					return &zurielWorker{set: s, c: s.NewCtx()}
				},
			}, s.Devices()
		},
	}
}

// cmapWorker adapts the lock-based map; its Insert has Put (upsert)
// semantics as in pmemkv.
type cmapWorker struct {
	m *cmapkv.Map
	c *cmapkv.Ctx
}

func (w *cmapWorker) Insert(key, val uint64) bool { return w.m.Put(w.c, key, val) }
func (w *cmapWorker) Delete(key uint64) bool      { return w.m.Delete(w.c, key) }
func (w *cmapWorker) Contains(key uint64) bool    { return w.m.Contains(w.c, key) }

// cmapCompetitor builds the pmemkv-style lock-based hash map.
func cmapCompetitor() Competitor {
	return Competitor{
		Label: "Cmap",
		Make: func(keyRange int) (workload.Target, []*pmem.Device) {
			words := keyRange*4*4 + 1<<18
			if words < 1<<20 {
				words = 1 << 20
			}
			m := cmapkv.New(cmapkv.Config{Words: words, Buckets: bucketsFor(keyRange)})
			return workload.Target{
				Name: "hashtable/Cmap",
				NewWorker: func() workload.Worker {
					return &cmapWorker{m: m, c: m.NewCtx()}
				},
			}, m.Devices()
		},
	}
}

// competitorsFor returns the paper's competitor line-up for a structure.
// mirrorKind selects MirrorDRAM (Figure 6) or MirrorNVMM (Figure 7).
func competitorsFor(structure string, mirrorKind engine.Kind) []Competitor {
	cs := []Competitor{
		engineCompetitor(engine.OrigDRAM, structure),
		engineCompetitor(engine.OrigNVMM, structure),
		engineCompetitor(engine.Izraelevitz, structure),
		engineCompetitor(engine.NVTraverse, structure),
		engineCompetitor(mirrorKind, structure),
	}
	if structure == StList || structure == StHash {
		cs = append(cs,
			zurielCompetitor(false, structure),
			zurielCompetitor(true, structure))
	}
	return cs
}
