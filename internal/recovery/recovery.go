// Package recovery is the substrate of the recovery pipeline (§4.3.3).
// Recovery in this repository is one trace of a crashed image, from the
// roots, whose output is consumed as it is produced: copied to a volatile
// replica, re-registered with an allocator. Stream is that pass: the trace
// runs on the caller and hands its output, a fixed-size batch at a time, to
// sinks that fold each batch into private accumulators, merged by the
// caller afterwards. No list of everything the trace reached is ever built.
// The package stays ignorant of engines, devices, and structures (it is
// imported by all of them); Run and Chunks are the worker pool and the
// index split of the scan-based baselines.
//
// The parallel degenerate case is exact: with one worker both Stream and
// Run execute inline, in order, on the calling goroutine, so a one-worker
// recovery is byte-for-byte the sequential algorithm, not a one-worker
// simulation of the parallel one.
//
// Panics propagate: a simulated power failure during recovery surfaces as a
// pmem.ErrFrozen panic inside a worker, and Run and Stream re-raise the
// first panic on the calling goroutine after every worker has unwound —
// which is what lets the crash-during-recovery tests treat a parallel
// recovery exactly like any other crashable operation.
package recovery

import (
	"sync"
	"sync/atomic"
)

// Options tunes a recovery pipeline.
type Options struct {
	// Parallelism is the worker count of the recovery pass, the trace's
	// own goroutine included. Values <= 1 select the sequential path.
	Parallelism int
}

// Workers returns the effective worker count (at least 1).
func (o Options) Workers() int {
	if o.Parallelism < 1 {
		return 1
	}
	return o.Parallelism
}

// Batch is the number of items Stream hands a sink at once.
const Batch = 512

// streamDepth bounds the batches in flight to the sinks. A trace in key
// order scatters its first batch over every page of a fresh replica, so
// that batch's sink pays nearly all of the recovery's page faults; the
// queue lets the trace run on meanwhile instead of waiting for it.
const streamDepth = 64

// stopped unwinds a producer whose sinks have failed; Stream re-raises the
// sink's panic in its place.
type stopped struct{}

// Stream runs produce on the caller and folds every item it emits into an
// accumulator, Batch items at a time, by sink(acc, batch); the batch slice
// is reused once sink returns. It returns the accumulators, made by newAcc.
//
// At one worker there is one accumulator and the sink runs inline, in emit
// order, as each batch fills. At N >= 2 workers full batches go over a
// channel of streamDepth batches to sink goroutines while produce
// continues: one is started, with an accumulator of its own, per batch sent
// until there are N-1, and the result holds their accumulators in start
// order. Which sink folds which batch is up to the scheduler, so the
// caller's merge must not depend on it.
//
// A panic in a sink stops produce at its next full batch, and a panic in
// produce stops the sinks before their next batch. Either way Stream
// returns only after every sink has exited, and then re-raises the first
// panic on the caller.
func Stream[T, A any](workers int, newAcc func() A, produce func(emit func(T)), sink func(acc A, batch []T)) []A {
	buf := make([]T, 0, Batch)
	if workers <= 1 {
		acc := newAcc()
		produce(func(x T) {
			if buf = append(buf, x); len(buf) == Batch {
				sink(acc, buf)
				buf = buf[:0]
			}
		})
		if len(buf) > 0 {
			sink(acc, buf)
		}
		return []A{acc}
	}

	var (
		batches = make(chan []T, streamDepth)
		free    = make(chan []T, streamDepth+workers) // every batch in flight: queued, in a sink, being filled
		stop    = make(chan struct{})
		accs    []A
		mu      sync.Mutex
		first   any
		failed  bool
		wg      sync.WaitGroup
	)
	fail := func(r any) {
		mu.Lock()
		defer mu.Unlock()
		if !failed {
			first, failed = r, true
			close(stop)
		}
	}
	run := func(acc A) {
		defer wg.Done()
		defer func() {
			if r := recover(); r != nil {
				fail(r)
			}
		}()
		for b := range batches {
			select {
			case <-stop:
				return
			default:
			}
			sink(acc, b)
			select {
			case free <- b[:0]:
			default:
			}
		}
	}
	send := func() {
		if len(accs) < workers-1 {
			accs = append(accs, newAcc())
			wg.Add(1)
			go run(accs[len(accs)-1])
		}
		select {
		case <-stop:
			panic(stopped{})
		default:
		}
		select {
		case batches <- buf:
		case <-stop:
			panic(stopped{})
		}
		select {
		case buf = <-free:
		default:
			buf = make([]T, 0, Batch)
		}
	}
	func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(stopped); !ok {
					fail(r)
				}
			}
		}()
		produce(func(x T) {
			if buf = append(buf, x); len(buf) == Batch {
				send()
			}
		})
		if len(buf) > 0 {
			send()
		}
	}()
	close(batches)
	wg.Wait()
	if failed {
		panic(first)
	}
	return accs
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
// near-equal [lo, hi) ranges, dropping empty ones. The heap scans use it
// so every caller rounds identically.
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
