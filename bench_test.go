package mirror

// This file holds the substrate microbenchmarks and the ablation
// benchmarks for the design choices DESIGN.md calls out. The paper's
// Figures 6 and 7 are not benchmarks: their counted passes are exact, and
// internal/harness's TestPaperClaims asserts the paper's claims on them.
//
// Run with: go test -bench=. -benchmem

import (
	"testing"
	"time"

	"mirror/internal/dwcas"
	"mirror/internal/engine"
	"mirror/internal/pmem"
	"mirror/internal/structures/queue"
	"mirror/internal/workload"
)

// Substrate microbenchmarks: the simulated-device fast path must disappear
// from profiles for the engine comparisons above to mean anything. Load is
// the zero-read-overhead claim in miniature — one inlined gate compare and
// the atomic word read; Store adds the sequentially-consistent store
// (XCHG), which is the hardware floor. Run with:
//
//	go test -bench BenchmarkDevice -benchmem

func newBenchDevice() *pmem.Device {
	return pmem.New(pmem.Config{Name: "bench", Words: 1 << 16})
}

func BenchmarkDeviceFastPathLoad(b *testing.B) {
	d := newBenchDevice()
	d.Store(1, 42)
	var sink uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += d.Load(uint64(i&0xfff) + 1)
	}
	benchSink = sink
}

func BenchmarkDeviceFastPathStore(b *testing.B) {
	d := newBenchDevice()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Store(uint64(i&0xfff)+1, uint64(i))
	}
}

func BenchmarkDeviceFastPathLoadStore(b *testing.B) {
	d := newBenchDevice()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := uint64(i&0xfff) + 1
		d.Store(off, d.Load(off)+1)
	}
}

func BenchmarkDeviceFastPathLoadParallel(b *testing.B) {
	d := newBenchDevice()
	for off := uint64(1); off <= 1<<12; off++ {
		d.Store(off, off)
	}
	b.RunParallel(func(pb *testing.PB) {
		var sink, i uint64
		for pb.Next() {
			sink += d.Load(i&0xfff + 1)
			i++
		}
		benchSink = sink
	})
}

func BenchmarkDeviceFlushFence(b *testing.B) {
	d := pmem.New(pmem.Config{Name: "bench", Words: 1 << 16, Persistent: true, Track: true})
	b.RunParallel(func(pb *testing.PB) {
		var fs pmem.FlushSet
		var i uint64
		for pb.Next() {
			off := i&0xfff + 1
			d.Store(off, i)
			d.Flush(&fs, off)
			d.Fence(&fs)
			i++
		}
	})
}

// benchSink defeats dead-code elimination of benchmark loads.
var benchSink uint64

// reportModel prices n calls of op with a counted pass over devs and
// reports the modeled cost of one call as model_ns/op, beside the
// benchmark's native ns/op. Call it after the timed loop: ResetTimer
// deletes reported metrics.
func reportModel(b *testing.B, devs []*pmem.Device, n int, op func(i int)) {
	var ns float64
	for _, t := range pmem.Count(devs, func() {
		for i := 0; i < n; i++ {
			op(i)
		}
	}) {
		ns += t.NS()
	}
	b.ReportMetric(ns/float64(n), "model_ns/op")
}

// Ablations.

// BenchmarkAblationPersistenceInstructions measures flushes and fences per
// update operation for each durable engine — the instruction-count account
// behind the throughput differences (§1: "good algorithms use these
// instructions sparingly").
func BenchmarkAblationPersistenceInstructions(b *testing.B) {
	for _, kind := range []engine.Kind{engine.Izraelevitz, engine.NVTraverse, engine.MirrorDRAM} {
		b.Run(kind.String(), func(b *testing.B) {
			rt := New(Options{Kind: kind, Words: 1 << 21})
			c := rt.NewCtx()
			s := rt.NewList(c)
			fl0, fe0 := rt.Counters()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				key := uint64(i%512 + 1)
				s.Insert(c, key, key)
				s.Delete(c, key)
			}
			b.StopTimer()
			fl1, fe1 := rt.Counters()
			ops := float64(2 * b.N)
			b.ReportMetric(float64(fl1-fl0)/ops, "flushes/op")
			b.ReportMetric(float64(fe1-fe0)/ops, "fences/op")
		})
	}
}

// BenchmarkAblationDWCASPath compares the native CMPXCHG16B double-word
// CAS against the portable striped-seqlock emulation underneath the same
// Mirror workload — quantifying what the hardware instruction buys.
func BenchmarkAblationDWCASPath(b *testing.B) {
	for _, fallback := range []bool{false, true} {
		name := "native"
		if fallback {
			name = "fallback"
		}
		b.Run(name, func(b *testing.B) {
			if fallback {
				dwcas.SetFallback(true)
				defer dwcas.SetFallback(false)
			} else if !dwcas.Native() {
				b.Skip("no native DWCAS")
			}
			rt := New(Options{Kind: MirrorDRAM, Words: 1 << 21})
			c := rt.NewCtx()
			s := rt.NewHashTable(c, 1024)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				key := uint64(i%2048 + 1)
				s.Insert(c, key, key)
				s.Delete(c, key)
			}
		})
	}
}

// BenchmarkAblationReplicaPlacement isolates the paper's second idea: the
// same Mirror protocol with the volatile replica on DRAM versus on NVMM,
// on a read-heavy workload (§6.3's question).
func BenchmarkAblationReplicaPlacement(b *testing.B) {
	for _, kind := range []engine.Kind{engine.MirrorDRAM, engine.MirrorNVMM} {
		b.Run(kind.String(), func(b *testing.B) {
			rt := New(Options{Kind: kind, Words: 1 << 21, DisableTracking: true})
			c := rt.NewCtx()
			s := rt.NewHashTable(c, 4096)
			for k := uint64(1); k <= 4096; k++ {
				s.Insert(c, k, k)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Contains(c, uint64(i%8192+1))
			}
			b.StopTimer()
			reportModel(b, rt.Engine().Devices(), 8192, func(i int) { s.Contains(c, uint64(i+1)) })
		})
	}
}

// BenchmarkAblationTraversalHints measures what the traversal/critical
// read distinction buys NVTraverse: the same list with every read treated
// as critical degenerates to the Izraelevitz cost.
func BenchmarkAblationTraversalHints(b *testing.B) {
	run := func(b *testing.B, kind engine.Kind) {
		rt := New(Options{Kind: kind, Words: 1 << 21, DisableTracking: true})
		c := rt.NewCtx()
		s := rt.NewList(c)
		for k := uint64(1); k <= 128; k++ {
			s.Insert(c, k, k)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Contains(c, uint64(i%256+1))
		}
		b.StopTimer()
		reportModel(b, rt.Engine().Devices(), 256, func(i int) { s.Contains(c, uint64(i+1)) })
	}
	b.Run("NVTraverse", func(b *testing.B) { run(b, engine.NVTraverse) })
	b.Run("Izraelevitz", func(b *testing.B) { run(b, engine.Izraelevitz) })
	b.Run("Mirror", func(b *testing.B) { run(b, engine.MirrorDRAM) })
}

// BenchmarkQueueComparison runs the Michael–Scott queue under Mirror and
// the other general transformations — the queue analogue of the paper's
// transformation comparison.
func BenchmarkQueueComparison(b *testing.B) {
	for _, kind := range []engine.Kind{engine.MirrorDRAM, engine.MirrorNVMM, engine.Izraelevitz, engine.NVTraverse} {
		b.Run(kind.String(), func(b *testing.B) {
			e := engine.New(engine.Config{Kind: kind, Words: 1 << 22})
			c := e.NewCtx()
			q := queue.New(e, c)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.Enqueue(c, uint64(i))
				q.Dequeue(c)
			}
			b.StopTimer()
			reportModel(b, e.Devices(), 1024, func(i int) {
				q.Enqueue(c, uint64(i))
				q.Dequeue(c)
			})
		})
	}
}

// BenchmarkWorkloadGenerator measures the generator's own overhead so
// throughput numbers can be attributed to the structures, not the driver.
func BenchmarkWorkloadGenerator(b *testing.B) {
	target := workload.Target{
		Name:      "noop",
		NewWorker: func() workload.Worker { return noopWorker{} },
	}
	res := workload.Run(target, workload.Spec{
		KeyRange: 1 << 20,
		Mix:      workload.Mix801010,
		Threads:  2,
		Duration: 50 * time.Millisecond,
		Seed:     1,
	})
	b.ReportMetric(res.MopsPerSec(), "Mops")
	for i := 0; i < b.N; i++ {
		_ = i
	}
}

type noopWorker struct{}

func (noopWorker) Insert(key, val uint64) bool { return true }
func (noopWorker) Delete(key uint64) bool      { return true }
func (noopWorker) Contains(key uint64) bool    { return true }
