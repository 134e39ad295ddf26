package workload

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// mapWorker is an in-memory reference target.
type mapTarget struct {
	mu sync.Mutex
	m  map[uint64]uint64
}

type mapWorker struct{ t *mapTarget }

func (w mapWorker) Insert(key, val uint64) bool {
	w.t.mu.Lock()
	defer w.t.mu.Unlock()
	if _, ok := w.t.m[key]; ok {
		return false
	}
	w.t.m[key] = val
	return true
}

func (w mapWorker) Delete(key uint64) bool {
	w.t.mu.Lock()
	defer w.t.mu.Unlock()
	if _, ok := w.t.m[key]; !ok {
		return false
	}
	delete(w.t.m, key)
	return true
}

func (w mapWorker) Contains(key uint64) bool {
	w.t.mu.Lock()
	defer w.t.mu.Unlock()
	_, ok := w.t.m[key]
	return ok
}

func newMapTarget() (*mapTarget, Target) {
	mt := &mapTarget{m: make(map[uint64]uint64)}
	return mt, Target{Name: "map", NewWorker: func() Worker { return mapWorker{mt} }}
}

func TestMixValidate(t *testing.T) {
	for _, m := range []Mix{Mix801010, YCSBA, YCSBB, YCSBC, YCSBD, YCSBE, YCSBF} {
		m.validate()
	}
	defer func() {
		if recover() == nil {
			t.Error("invalid mix should panic")
		}
	}()
	Mix{ReadPM: 1, InsertPM: 2, DeletePM: 3}.validate()
}

func TestUpdateMix(t *testing.T) {
	f := func(pRaw uint8) bool {
		p := int(pRaw) % 101
		m := UpdateMix(p)
		m.validate()
		return m.InsertPM+m.DeletePM == p*10
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if UpdateMix(0) != YCSBC {
		t.Errorf("UpdateMix(0) = %+v, want YCSB-C", UpdateMix(0))
	}
}

func TestMixString(t *testing.T) {
	if got := YCSBB.String(); got != "95%r/2.5%i/2.5%d" {
		t.Errorf("String = %q", got)
	}
}

func TestPrefillHalf(t *testing.T) {
	mt, target := newMapTarget()
	n := PrefillHalf(target, 10000, 42)
	if len(mt.m) != n {
		t.Fatalf("reported %d, map holds %d", n, len(mt.m))
	}
	// Roughly half, within 5 sigma of binomial.
	if n < 4600 || n > 5400 {
		t.Errorf("prefill = %d of 10000, want about half", n)
	}
	// Deterministic for a given seed.
	mt2, target2 := newMapTarget()
	if n2 := PrefillHalf(target2, 10000, 42); n2 != n || len(mt2.m) != n {
		t.Errorf("prefill not deterministic: %d vs %d", n2, n)
	}
}

func TestRunCountsAndMix(t *testing.T) {
	_, target := newMapTarget()
	res := Run(target, Spec{
		KeyRange: 1000,
		Mix:      Mix801010,
		Threads:  4,
		Duration: 50 * time.Millisecond,
		Seed:     1,
	})
	if res.Ops == 0 {
		t.Fatal("no operations completed")
	}
	if res.Reads+res.Inserts+res.Deletes != res.Ops {
		t.Error("per-type counts do not sum to total")
	}
	readFrac := float64(res.Reads) / float64(res.Ops)
	if readFrac < 0.75 || readFrac > 0.85 {
		t.Errorf("read fraction = %.3f, want about 0.8", readFrac)
	}
	if res.MopsPerSec() <= 0 {
		t.Error("throughput must be positive")
	}
}

func TestRunReadOnlyDoesNotMutate(t *testing.T) {
	mt, target := newMapTarget()
	PrefillHalf(target, 100, 7)
	before := len(mt.m)
	Run(target, Spec{KeyRange: 100, Mix: YCSBC, Threads: 2, Duration: 20 * time.Millisecond, Seed: 2})
	if len(mt.m) != before {
		t.Errorf("read-only run changed the set: %d -> %d", before, len(mt.m))
	}
}

func TestResultZeroElapsed(t *testing.T) {
	if (Result{Ops: 10}).MopsPerSec() != 0 {
		t.Error("zero elapsed should give zero throughput")
	}
}

// TestRunOpsRepeats checks the counted-pass runner: exactly n operations,
// and the same sequence — so the same final state — on every run.
func TestRunOpsRepeats(t *testing.T) {
	spec := Spec{KeyRange: 64, Mix: YCSBA, Seed: 5}
	var states []map[uint64]uint64
	for i := 0; i < 2; i++ {
		mt, target := newMapTarget()
		res := RunOps(target.NewWorker(), spec, 1000)
		if res.Ops != 1000 || res.Reads+res.Inserts+res.Deletes != 1000 || res.Reads == 0 || res.Inserts == 0 {
			t.Fatalf("RunOps result %+v, want 1000 ops of the A mix", res)
		}
		states = append(states, mt.m)
	}
	if len(states[0]) != len(states[1]) {
		t.Fatalf("two runs left %d and %d keys", len(states[0]), len(states[1]))
	}
	for k := range states[0] {
		if _, ok := states[1][k]; !ok {
			t.Fatalf("key %d present after one run only", k)
		}
	}
}

func TestLatencySampling(t *testing.T) {
	_, target := newMapTarget()
	spec := Spec{KeyRange: 100, Mix: Mix801010, Threads: 2, Duration: 30 * time.Millisecond, Seed: 3}
	spec.SampleLatency = 16
	res := Run(target, spec)
	if len(res.Latencies) == 0 {
		t.Fatal("no latency samples collected")
	}
	for i := 1; i < len(res.Latencies); i++ {
		if res.Latencies[i] < res.Latencies[i-1] {
			t.Fatal("latencies not sorted")
		}
	}
	p50, p99 := res.Percentile(50), res.Percentile(99)
	if p50 <= 0 || p99 < p50 {
		t.Errorf("percentiles p50=%v p99=%v", p50, p99)
	}
	if res.Percentile(0) != res.Latencies[0] {
		t.Error("p0 should be the minimum")
	}
	// Sampling off: no percentiles.
	res2 := Run(target, Spec{KeyRange: 100, Mix: YCSBC, Threads: 1, Duration: 10 * time.Millisecond, Seed: 3})
	if res2.Percentile(50) != 0 || len(res2.Latencies) != 0 {
		t.Error("sampling should be off by default")
	}
}
