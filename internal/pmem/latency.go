package pmem

import (
	"sync"
	"sync/atomic"
	"time"
)

// LatencyModel describes the extra access cost, in nanoseconds, that a
// Device injects on top of the host's native memory speed. The values model
// the gap between the simulated technology and ordinary Go heap access; the
// absolute numbers matter less than the ratios, which set the shape of the
// benchmark results (§6.1 of the paper: NVMM reads ≈ 3× DRAM reads, flushes
// and fences each cost on the order of a cache miss).
type LatencyModel struct {
	LoadNS  int // per 8-byte load
	StoreNS int // per 8-byte store (and per CAS/DWCAS attempt)
	FlushNS int // per CLWB-equivalent flush
	FenceNS int // per SFENCE-equivalent fence
}

// Zero reports whether the model injects no delays at all.
func (m LatencyModel) Zero() bool {
	return m.LoadNS == 0 && m.StoreNS == 0 && m.FlushNS == 0 && m.FenceNS == 0
}

// DRAMModel approximates conventional DRAM: a uniform modest access cost and
// no meaningful flush semantics (flushing DRAM buys no durability).
func DRAMModel() LatencyModel {
	return LatencyModel{LoadNS: 20, StoreNS: 20, FlushNS: 20, FenceNS: 20}
}

// NVMMModel approximates Intel Optane DC in App-Direct mode relative to
// DRAMModel: reads about 3× slower, writes somewhat slower still, and
// explicit write-backs costing roughly an LLC miss each.
func NVMMModel() LatencyModel {
	return LatencyModel{LoadNS: 60, StoreNS: 75, FlushNS: 60, FenceNS: 100}
}

// NoLatency injects no delays; unit tests and the crash harness use it so
// correctness runs are fast.
func NoLatency() LatencyModel { return LatencyModel{} }

// The spin rate (loop iterations per nanosecond, fixed-point scaled by
// 1024) is calibrated exactly once per process and cached; devices convert
// their model's nanosecond costs to iteration counts at construction, so
// the per-access path does no rate lookup and no fixed-point arithmetic.
var (
	calOnce sync.Once
	calRate int64
)

// spinSink defeats dead-code elimination of the calibration and delay loops.
var spinSink atomic.Uint64

func calibrate() int64 {
	const probe = 200000
	var acc uint64
	start := time.Now()
	for i := 0; i < probe; i++ {
		acc += uint64(i) ^ (acc >> 3)
	}
	spinSink.Store(acc)
	elapsed := time.Since(start).Nanoseconds()
	if elapsed < 1 {
		elapsed = 1
	}
	rate := int64(probe) * 1024 / elapsed
	if rate < 1 {
		rate = 1
	}
	return rate
}

// spinRate returns the cached calibration, calibrating on first use.
func spinRate() int64 {
	calOnce.Do(func() { calRate = calibrate() })
	return calRate
}

// spinIters converts a model cost in nanoseconds to spin-loop iterations.
func spinIters(ns int) int64 {
	if ns <= 0 {
		return 0
	}
	n := int64(ns) * spinRate() / 1024
	if n < 1 {
		n = 1
	}
	return n
}

// spinN busy-waits for n precomputed loop iterations. It never sleeps: the
// delays being modeled are far below scheduler granularity.
func spinN(n int64) {
	if n <= 0 {
		return
	}
	var acc uint64
	for i := int64(0); i < n; i++ {
		acc += uint64(i) ^ (acc >> 3)
	}
	spinSink.Store(acc)
}

// spin busy-waits for approximately ns nanoseconds (tests and one-off
// callers; devices precompute iteration counts instead).
func spin(ns int) { spinN(spinIters(ns)) }
