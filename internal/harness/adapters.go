// Package harness regenerates the paper's evaluation: every panel of
// Figure 6 (volatile replica on DRAM) and Figure 7 (both replicas on NVMM)
// is a Panel spec that builds the competitors, prefills them to half the
// key range, drives the workload, and prints the measured series as a
// table in native Mops/s beside each point's modeled ns/op (the counted
// pass: exact device counts × the DRAM/NVMM cost tables).
package harness

import (
	"fmt"
	"sync/atomic"

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
	Make func(o Options, keyRange int) (workload.Target, []*pmem.Device)
}

// engineWorker adapts a structures.Set to workload.Worker.
type engineWorker struct {
	set structures.Set
	c   *engine.Ctx
}

func (w *engineWorker) Insert(key, val uint64) bool { return w.set.Insert(w.c, key, val) }
func (w *engineWorker) Delete(key uint64) bool      { return w.set.Delete(w.c, key) }
func (w *engineWorker) Contains(key uint64) bool    { return w.set.Contains(w.c, key) }

// detectWorker routes every operation through a detectable bracket via
// engine.ExactlyOnce — the Options.Detect ablation path, measuring the
// operation-descriptor overhead. Each worker owns one descriptor slot for
// the duration of a measured point; the per-client sequence counters are
// shared across the thread sweep so sequence numbers stay monotone when a
// slot is reused by a later point's worker.
type detectWorker struct {
	set    structures.Set
	e      engine.Detector
	c      *engine.Ctx
	client int
	seq    *atomic.Uint64
}

func (w *detectWorker) run(kind, key, val uint64, f func(c *engine.Ctx) bool) bool {
	out := engine.ExactlyOnce(w.e, w.c, engine.DetectOp{
		Client: w.client, Seq: w.seq.Add(1),
		Kind: kind, Key: key, Val: val, Run: f,
	}, true)
	return out.Result
}

func (w *detectWorker) Insert(key, val uint64) bool {
	return w.run(engine.DetectInsert, key, val,
		func(c *engine.Ctx) bool { return w.set.Insert(c, key, val) })
}

func (w *detectWorker) Delete(key uint64) bool {
	return w.run(engine.DetectDelete, key, 0,
		func(c *engine.Ctx) bool { return w.set.Delete(c, key) })
}

func (w *detectWorker) Contains(key uint64) bool {
	return w.run(engine.DetectContains, key, 0,
		func(c *engine.Ctx) bool { return w.set.Contains(c, key) })
}

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

// buildEngineTarget constructs one structure under one engine and returns
// both the workload target and the engine, so callers that need the counters
// and protocol statistics (the JSON benchmark matrix) can read them around a
// run.
func buildEngineTarget(kind engine.Kind, structure string, o Options, keyRange int) (workload.Target, engine.Engine) {
	clients := 0
	if o.Detect {
		// One descriptor slot per concurrent worker at the widest point of
		// the thread sweep; worker ids are assigned modulo this, so ids are
		// distinct within any single measured point.
		for _, th := range o.Threads {
			if th > clients {
				clients = th
			}
		}
		if clients == 0 {
			clients = 1
		}
	}
	e := engine.New(engine.Config{
		Kind:    kind,
		Words:   deviceWords(structure, kind, keyRange),
		Track:   false, // benchmarks never crash
		Clients: clients,
	})
	c := e.NewCtx()
	set := newSet(structure, e, c, keyRange)
	var workerIDs atomic.Uint64
	seqs := make([]atomic.Uint64, clients)
	return workload.Target{
		Name:          fmt.Sprintf("%s/%s", structure, kind),
		SortedPrefill: structure == StList,
		NewWorker: func() workload.Worker {
			c := e.NewCtx()
			if clients > 0 {
				id := int(workerIDs.Add(1)-1) % clients
				return &detectWorker{set: set, e: e, c: c, client: id, seq: &seqs[id]}
			}
			return &engineWorker{set: set, c: c}
		},
	}, e
}

// engineCompetitor builds one structure under one engine.
func engineCompetitor(kind engine.Kind, structure string) Competitor {
	return Competitor{
		Label: kind.String(),
		Make: func(o Options, keyRange int) (workload.Target, []*pmem.Device) {
			t, e := buildEngineTarget(kind, structure, o, keyRange)
			return t, e.Devices()
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
		Make: func(o Options, keyRange int) (workload.Target, []*pmem.Device) {
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
		Make: func(o Options, keyRange int) (workload.Target, []*pmem.Device) {
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
