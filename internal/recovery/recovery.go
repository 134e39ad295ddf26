// Package recovery is the substrate of the recovery pipeline (§4.3.3).
// Recovery everywhere in this repository has the same two-phase shape: a
// *trace* phase walks the reachable objects of a crashed image once, from
// the roots, and a *rebuild* phase consumes what it found — copying it to a
// volatile replica, re-registering it with an allocator, or re-inserting it
// into a fresh structure. The trace is one sequential walk; the rebuild is
// embarrassingly parallel once its input is split, so this package provides
// the split and the worker pool, while staying ignorant of engines,
// devices, and structures (it is imported by all of them).
//
// The parallel degenerate case is exact: Run with one worker executes the
// tasks in index order on the calling goroutine, and Parts at one worker
// is the whole list, so Parallelism=1 recovery is byte-for-byte the
// sequential algorithm, not a one-worker simulation of the parallel one.
//
// Panics propagate: a simulated power failure during recovery surfaces as a
// pmem.ErrFrozen panic inside a worker, and Run re-raises the first panic
// on the calling goroutine after all workers have unwound — which is what
// lets the crash-during-recovery tests treat a parallel rebuild exactly
// like any other crashable operation.
package recovery

import (
	"sync"
	"sync/atomic"
)

// Options tunes a recovery pipeline.
type Options struct {
	// Parallelism is the worker count for the rebuild phase. Values <= 1
	// select the sequential path.
	Parallelism int
}

// Workers returns the effective worker count (at least 1).
func (o Options) Workers() int {
	if o.Parallelism < 1 {
		return 1
	}
	return o.Parallelism
}

// Run executes fn(0..tasks-1) on at most workers goroutines and returns
// when every task has either run or been abandoned because a task panicked.
// With one worker (or one task) it runs inline, in order, on the caller.
// Tasks are claimed from a shared counter, so uneven task costs balance
// automatically. If any task panics, remaining unclaimed tasks are skipped
// and the first panic value is re-raised on the caller.
func Run(workers, tasks int, fn func(task int)) {
	if tasks <= 0 {
		return
	}
	if workers > tasks {
		workers = tasks
	}
	if workers <= 1 {
		for i := 0; i < tasks; i++ {
			fn(i)
		}
		return
	}
	var (
		next     atomic.Int64
		stopped  atomic.Bool
		panicMu  sync.Mutex
		panicVal any
		wg       sync.WaitGroup
	)
	worker := func() {
		defer wg.Done()
		for !stopped.Load() {
			i := int(next.Add(1)) - 1
			if i >= tasks {
				return
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						stopped.Store(true)
						panicMu.Lock()
						if panicVal == nil {
							panicVal = r
						}
						panicMu.Unlock()
					}
				}()
				fn(i)
			}()
		}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go worker()
	}
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
}

// Chunks splits the index range [0, n) into at most parts contiguous,
// near-equal [lo, hi) ranges, dropping empty ones. Parts and the heap
// scans use it so every caller rounds identically.
func Chunks(n, parts int) [][2]int {
	if n <= 0 || parts <= 0 {
		return nil
	}
	if parts > n {
		parts = n
	}
	out := make([][2]int, 0, parts)
	for p := 0; p < parts; p++ {
		lo, hi := n*p/parts, n*(p+1)/parts
		if lo < hi {
			out = append(out, [2]int{lo, hi})
		}
	}
	return out
}

// Parts splits one trace's output into contiguous parts for workers
// rebuild workers, preserving its order: the whole list at one worker,
// otherwise min(workers, len(items)) near-equal non-empty parts (Chunks).
func Parts[T any](items []T, workers int) [][]T {
	if workers <= 1 {
		return [][]T{items}
	}
	var out [][]T
	for _, c := range Chunks(len(items), workers) {
		out = append(out, items[c[0]:c[1]])
	}
	return out
}
