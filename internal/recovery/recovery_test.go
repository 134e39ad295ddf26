package recovery

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunExecutesEveryTask(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 4, 16} {
		for _, tasks := range []int{0, 1, 3, 7, 100} {
			hits := make([]atomic.Int32, tasks)
			Run(workers, tasks, func(i int) { hits[i].Add(1) })
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("workers=%d tasks=%d: task %d ran %d times", workers, tasks, i, got)
				}
			}
		}
	}
}

func TestRunSequentialOrder(t *testing.T) {
	var order []int
	Run(1, 5, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("sequential Run out of order: %v", order)
		}
	}
}

func TestRunPropagatesPanic(t *testing.T) {
	sentinel := errors.New("boom")
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				if r := recover(); r != sentinel {
					t.Fatalf("workers=%d: recovered %v, want sentinel", workers, r)
				}
			}()
			Run(workers, 50, func(i int) {
				if i == 10 {
					panic(sentinel)
				}
			})
			t.Fatalf("workers=%d: Run returned without panicking", workers)
		}()
	}
}

func TestRunPanicStopsRemainingTasks(t *testing.T) {
	var ran atomic.Int32
	func() {
		defer func() { recover() }()
		Run(4, 10000, func(i int) {
			ran.Add(1)
			panic("stop")
		})
	}()
	// Each worker abandons its loop after observing the stop flag; far
	// fewer than all tasks may run, but at least one must have.
	if n := ran.Load(); n < 1 || n > 10000 {
		t.Fatalf("ran %d tasks", n)
	}
}

func TestChunksCoverExactly(t *testing.T) {
	for _, n := range []int{0, 1, 5, 64, 1000} {
		for _, parts := range []int{1, 2, 3, 7, 64, 2000} {
			chunks := Chunks(n, parts)
			covered := 0
			prev := 0
			for _, c := range chunks {
				if c[0] != prev {
					t.Fatalf("n=%d parts=%d: gap before %v", n, parts, c)
				}
				if c[1] <= c[0] {
					t.Fatalf("n=%d parts=%d: empty chunk %v", n, parts, c)
				}
				covered += c[1] - c[0]
				prev = c[1]
			}
			if covered != n {
				t.Fatalf("n=%d parts=%d: covered %d", n, parts, covered)
			}
			if len(chunks) > parts {
				t.Fatalf("n=%d parts=%d: %d chunks", n, parts, len(chunks))
			}
		}
	}
}

// TestBatchesPreserveSpans pins the streamed rebuild at 1, 2 and 4 workers,
// for span counts below, at and above one batch: every emitted span reaches
// a sink exactly once — restored once, and folded once into exactly one
// accumulator — in batches of at most Batch; at one worker in emit order,
// in full batches but the last, into one accumulator.
func TestBatchesPreserveSpans(t *testing.T) {
	for _, n := range []int{0, 1, 5, Batch - 1, Batch, Batch + 1, 5*Batch + 17} {
		for _, workers := range []int{1, 2, 4} {
			restored := make([]atomic.Int32, n)
			var batches [][]int
			accs := Stream(workers, func() *[]int { return new([]int) }, func(emit func(int)) {
				for i := 0; i < n; i++ {
					emit(i)
				}
			}, func(acc *[]int, batch []int) {
				if len(batch) == 0 || len(batch) > Batch {
					t.Errorf("n=%d workers=%d: batch of %d", n, workers, len(batch))
				}
				for _, sp := range batch {
					restored[sp].Add(1)
				}
				*acc = append(*acc, batch...)
				if workers == 1 {
					batches = append(batches, append([]int{}, batch...))
				}
			})
			if workers == 1 && len(accs) != 1 || len(accs) > max(workers-1, 1) {
				t.Fatalf("n=%d workers=%d: %d accumulators", n, workers, len(accs))
			}
			folded := make([]int, n)
			for _, acc := range accs {
				for _, sp := range *acc {
					folded[sp]++
				}
			}
			for i := 0; i < n; i++ {
				if restored[i].Load() != 1 || folded[i] != 1 {
					t.Fatalf("n=%d workers=%d: span %d restored %d times, folded %d times",
						n, workers, i, restored[i].Load(), folded[i])
				}
			}
			if workers > 1 {
				continue
			}
			for i, sp := range *accs[0] {
				if sp != i {
					t.Fatalf("n=%d: one worker folded span %d at position %d", n, sp, i)
				}
			}
			for i, b := range batches {
				if i < len(batches)-1 && len(b) != Batch {
					t.Fatalf("n=%d: one worker's batch %d holds %d spans", n, i, len(b))
				}
			}
		}
	}
}

// streamPanics runs a stream of spans spans at workers workers whose trace
// or sink panics with sentinel, and returns what Stream re-raised.
func streamPanics(workers, spans int, inTrace bool, sentinel error) (got any) {
	defer func() { got = recover() }()
	Stream(workers, func() *int { return new(int) }, func(emit func(int)) {
		for i := 0; i < spans; i++ {
			if inTrace && i == 3*Batch+7 {
				panic(sentinel)
			}
			emit(i)
		}
	}, func(acc *int, batch []int) {
		if !inTrace && batch[0] == Batch {
			panic(sentinel)
		}
		*acc += len(batch)
	})
	return nil
}

// TestStreamPanicStopsTheOtherSide: a panic in a sink stops the trace, and a
// panic in the trace stops the sinks; either way the first panic is
// re-raised on the caller after every sink goroutine has exited.
func TestStreamPanicStopsTheOtherSide(t *testing.T) {
	sentinel := errors.New("boom")
	for _, inTrace := range []bool{false, true} {
		for _, workers := range []int{2, 4} {
			before := runtime.NumGoroutine()
			// A sink that fails stops the trace, which would otherwise
			// emit this many spans.
			if got := streamPanics(workers, 1<<30, inTrace, sentinel); got != sentinel {
				t.Fatalf("inTrace=%v workers=%d: re-raised %v, want the sentinel", inTrace, workers, got)
			}
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
				if time.Now().After(deadline) {
					t.Fatalf("inTrace=%v workers=%d: %d goroutines, %d before", inTrace, workers, runtime.NumGoroutine(), before)
				}
				runtime.Gosched()
			}
		}
	}
}

func TestOptionsWorkers(t *testing.T) {
	if (Options{}).Workers() != 1 || (Options{Parallelism: -3}).Workers() != 1 {
		t.Fatal("degenerate options must report one worker")
	}
	if (Options{Parallelism: 8}).Workers() != 8 {
		t.Fatal("workers should follow parallelism")
	}
}
