package main

import (
	"path/filepath"
	"time"

	"mirror/internal/dwcas"
	"mirror/internal/palloc"
	"mirror/internal/patomic"
	"mirror/internal/pmem"
	"mirror/internal/workload"
)

// Micro-loops over private instances of the substrate layers. Time spent
// inside patomic and pmem during a structure operation cannot be split from
// outside the program, so the benchmark reports calls per operation (the
// counting wrapper) and the cost of one call here, side by side.

var microSink uint64 // keeps the measured calls alive

// nsPerOp times n calls of f, several times, and returns the median.
func nsPerOp(n int, f func(i int)) float64 {
	var runs []float64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f(i)
		}
		runs = append(runs, float64(time.Since(t0))/float64(n))
	}
	return median(runs)
}

func (e *env) emitMicro(em *emitter) {
	n := 200000
	if e.short {
		n = 5000
	}
	const cells = 1024 // 2-word cells at even offsets, one line apart

	// The persistent device as the served engine configures it.
	newP := func(media string) *pmem.Device {
		return pmem.New(pmem.Config{Name: "micro-p", Words: 1 << 16, Persistent: true, Track: true, Elide: true, MediaPath: media})
	}
	p := newP("")
	v := pmem.New(pmem.Config{Name: "micro-v", Words: 1 << 16})
	off := func(i int) uint64 { return uint64(8 + (i%cells)*pmem.WordsPerLine) }

	em.emit("pmem.load_ns", nsPerOp(n, func(i int) { microSink += p.Load(off(i)) }))
	em.emit("pmem.store_ns", nsPerOp(n, func(i int) { p.Store(off(i), uint64(i)) }))
	flushFence := func(d *pmem.Device) float64 {
		var fs pmem.FlushSet
		return nsPerOp(n, func(i int) {
			d.Store(off(i), uint64(i))
			d.Flush(&fs, off(i))
			d.Fence(&fs)
		})
	}
	em.emit("pmem.flush_fence_ns", flushFence(p))
	em.emit("pmem.flush_fence_media_ns", flushFence(newP(filepath.Join(e.work, "micro.img"))))

	mem := patomic.Mem{P: p, V: v}
	var ctx patomic.Ctx
	for i := 0; i < cells; i++ {
		mem.InitCell(&ctx, off(i), 0)
	}
	mem.PublishFence(&ctx)
	em.emit("patomic.load_ns", nsPerOp(n, func(i int) { microSink += mem.Load(off(i)) }))
	// Every CAS succeeds: cell i%cells holds the number of earlier visits.
	em.emit("patomic.cas_ns", nsPerOp(n, func(i int) {
		o := off(i)
		cur := mem.Load(o)
		if ok, _ := mem.CompareAndSwap(&ctx, o, cur, cur+1); !ok {
			panic("bench: uncontended patomic CAS failed")
		}
	}))

	alloc := palloc.New(palloc.Config{Base: 64, End: 1 << 20})
	cache := palloc.NewCache(alloc, palloc.NewReclaimer())
	em.emit("palloc.alloc_free_ns", nsPerOp(n, func(int) { cache.Free(cache.Alloc(8), 8) }))

	var pair [3]uint64 // one of the two candidate bases is 16-byte aligned
	cell := (*[2]uint64)(pair[:2])
	if !dwcas.Aligned(cell) {
		cell = (*[2]uint64)(pair[1:])
	}
	em.emit("dwcas.cas_ns", nsPerOp(n, func(i int) {
		if ok, _, _ := dwcas.CompareAndSwap(cell, cell[0], cell[1], uint64(i), uint64(i)+1); !ok {
			panic("bench: uncontended dwcas failed")
		}
	}))
	native := 0.0
	if dwcas.Native() {
		native = 1
	}
	em.emit("dwcas.native", native)

	// The generator's own cost: key and operation draw, no I/O.
	mix, dist, _ := workload.YCSBMix('A')
	g := newGenerator(workload.Spec{KeyRange: e.serveKeyRange(), Mix: mix, Seed: e.seed, Dist: dist}, 0)
	em.emit("loadgen.gen_ns_per_op", nsPerOp(n, func(int) { microSink += g.next().key }))
}
