package recovery

import (
	"errors"
	"sync/atomic"
	"testing"
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

// TestBatchesPreserveSpans pins the rebuild's split of one trace: the whole
// list at one worker, and at N workers min(N, spans) non-empty contiguous
// parts that cover the list in trace order — real parallelism even over a
// trace of a few spans.
func TestBatchesPreserveSpans(t *testing.T) {
	for _, n := range []int{0, 1, 3, 5, 512, 3000} {
		spans := make([]uint64, n)
		for i := range spans {
			spans[i] = uint64(i)
		}
		for _, workers := range []int{0, 1, 2, 3, 4, 8} {
			parts := Parts(spans, workers)
			want := min(workers, n)
			if workers <= 1 {
				want = 1
			}
			if len(parts) != want {
				t.Fatalf("n=%d workers=%d: %d parts, want %d", n, workers, len(parts), want)
			}
			next := uint64(0)
			for _, p := range parts {
				if len(p) == 0 && n > 0 {
					t.Fatalf("n=%d workers=%d: empty part", n, workers)
				}
				for _, sp := range p {
					if sp != next {
						t.Fatalf("n=%d workers=%d: order broken: got %d, want %d", n, workers, sp, next)
					}
					next++
				}
			}
			if next != uint64(n) {
				t.Fatalf("n=%d workers=%d: parts cover %d spans, want %d", n, workers, next, n)
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
