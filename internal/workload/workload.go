// Package workload generates and drives the benchmark workloads of §6.1:
// uniform random keys over a range [1, r], structures prefilled with r/2
// keys, and operation mixes covering YCSB-A/B/C plus the 80/10/10
// lookup/insert/delete mix used in most figures.
package workload

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Mix is an operation mix in per-mille (so 95.5% reads is representable).
// Scans and read-modify-writes are optional op classes (YCSB-E/F); targets
// without native support fall back per the Scanner/RMWer interface docs.
type Mix struct {
	ReadPM   int
	InsertPM int
	DeletePM int
	ScanPM   int
	RMWPM    int
}

func (m Mix) validate() {
	if m.ReadPM+m.InsertPM+m.DeletePM+m.ScanPM+m.RMWPM != 1000 {
		panic(fmt.Sprintf("workload: mix %+v does not sum to 1000 per-mille", m))
	}
}

// String renders the mix as the paper writes it, with scan/RMW components
// only when present.
func (m Mix) String() string {
	s := fmt.Sprintf("%g%%r/%g%%i/%g%%d",
		float64(m.ReadPM)/10, float64(m.InsertPM)/10, float64(m.DeletePM)/10)
	if m.ScanPM > 0 {
		s += fmt.Sprintf("/%g%%s", float64(m.ScanPM)/10)
	}
	if m.RMWPM > 0 {
		s += fmt.Sprintf("/%g%%m", float64(m.RMWPM)/10)
	}
	return s
}

// The standard mixes of §6.1, extended to the full YCSB core suite. The
// set-structure mapping is documented per workload: YCSB "update" on a
// keyed set splits evenly between inserts and deletes (A, B), so the
// structure size stays in steady state around the prefill.
var (
	// Mix801010 is 80% lookups, 10% inserts, 10% deletes.
	Mix801010 = Mix{ReadPM: 800, InsertPM: 100, DeletePM: 100}
	// YCSBA is 50% reads, updates split between inserts and deletes.
	YCSBA = Mix{ReadPM: 500, InsertPM: 250, DeletePM: 250}
	// YCSBB is 95% reads.
	YCSBB = Mix{ReadPM: 950, InsertPM: 25, DeletePM: 25}
	// YCSBC is read-only.
	YCSBC = Mix{ReadPM: 1000}
	// YCSBD is 95% reads, 5% inserts. YCSB's "latest" request
	// distribution (reads skewed to recent inserts) is approximated by
	// running it under the scrambled zipfian — honest caveat in
	// EXPERIMENTS.md: the skew is toward a fixed hot set, not the
	// insertion frontier.
	YCSBD = Mix{ReadPM: 950, InsertPM: 50}
	// YCSBE is 95% short range scans, 5% inserts.
	YCSBE = Mix{ScanPM: 950, InsertPM: 50}
	// YCSBF is 50% reads, 50% read-modify-writes.
	YCSBF = Mix{ReadPM: 500, RMWPM: 500}
)

// YCSBMix returns workload letter ('A'..'F', case-insensitive) as its mix
// plus the suite's default request distribution for it.
func YCSBMix(letter byte) (Mix, string, bool) {
	switch letter | 0x20 {
	case 'a':
		return YCSBA, DistZipfian, true
	case 'b':
		return YCSBB, DistZipfian, true
	case 'c':
		return YCSBC, DistZipfian, true
	case 'd':
		return YCSBD, DistZipfian, true // "latest" approximated by zipfian
	case 'e':
		return YCSBE, DistZipfian, true
	case 'f':
		return YCSBF, DistZipfian, true
	}
	return Mix{}, "", false
}

// UpdateMix returns the mix with the given percentage of updates (split
// evenly between inserts and deletes), as used in the update sweeps.
func UpdateMix(updatePct int) Mix {
	u := updatePct * 10
	return Mix{ReadPM: 1000 - u, InsertPM: u / 2, DeletePM: u - u/2}
}

// Worker is one thread's handle onto the structure under test. Adapters
// wrap each structure+engine combination.
type Worker interface {
	Insert(key, val uint64) bool
	Delete(key uint64) bool
	Contains(key uint64) bool
}

// Scanner is an optional Worker extension for range scans (YCSB-E): count
// the keys present in [from, to]. Workers without it serve a Mix.ScanPM
// operation as a Contains of the scan's start key (still counted as a
// scan in the Result), so scan mixes run — without scan semantics — on
// structures that cannot iterate in key order.
type Scanner interface {
	Scan(from, to uint64) int
}

// RMWer is an optional Worker extension for read-modify-write (YCSB-F).
// Workers without it serve a Mix.RMWPM operation as Contains followed by
// Insert of the same key — the closest composite a set API offers.
type RMWer interface {
	RMW(key, val uint64) bool
}

// Target is a freshly built structure under test.
type Target struct {
	Name string
	// NewWorker creates a per-thread handle; called once per thread.
	NewWorker func() Worker
	// SortedPrefill requests descending-key prefill order, which keeps
	// sorted-list insertion O(1) per key. Leave it false for trees: a
	// sorted prefill degenerates an unbalanced BST into a path.
	SortedPrefill bool
}

// Spec describes one benchmark run.
type Spec struct {
	KeyRange uint64        // keys drawn uniformly from [1, KeyRange]
	Mix      Mix           // operation mix
	Threads  int           // concurrent workers
	Duration time.Duration // measurement window
	Seed     int64         // base PRNG seed
	// SampleLatency, when nonzero, times every n-th operation so the
	// Result carries latency percentiles (sampling keeps the timer
	// overhead out of the measured throughput).
	SampleLatency int
	// Dist selects the key distribution: "" or DistUniform draws keys
	// uniformly from [1, KeyRange]; DistZipfian draws ranks from the Gray
	// et al. scrambled zipfian with parameter Skew; DistHotspot sends a
	// Skew fraction of accesses to a scrambled 10% hot set. Both skewed
	// distributions scramble ranks across the keyspace, so the hot keys
	// stress shard routing and structure hot paths rather than one dense
	// key region.
	Dist string
	// Skew parameterizes Dist: the zipfian theta in (0, 1) (default 0.99)
	// or the hotspot access fraction in (0, 1] (default 0.9). Ignored for
	// the uniform distribution.
	Skew float64
	// ScanMax bounds the span of a Mix.ScanPM range scan: each scan
	// covers [key, key+span] with span drawn uniformly from [1, 2*ScanMax]
	// (the prefill holds roughly every other key, so the expected result
	// size is ~ScanMax/2 keys, matching YCSB-E's uniform scan lengths).
	// Zero defaults to 100.
	ScanMax int
}

// Key distribution names.
const (
	DistUniform = "uniform"
	DistZipfian = "zipfian"
	DistHotspot = "hotspot"
)

// KeyFn maps one 64-bit PRNG draw to a key in [1, KeyRange].
type KeyFn func(r uint64) uint64

// mixKey is a splitmix64 finalizer used to scramble ranks across the
// keyspace (the "scrambled" in scrambled zipfian).
func mixKey(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// zetaCache memoizes the zipfian normalization sums, which cost O(n) to
// compute and are shared by every thread and every run at the same
// (n, theta).
var zetaCache sync.Map // "n/theta" -> float64

func zetaN(n uint64, theta float64) float64 {
	k := fmt.Sprintf("%d/%g", n, theta)
	if v, ok := zetaCache.Load(k); ok {
		return v.(float64)
	}
	sum := 0.0
	for i := uint64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	zetaCache.Store(k, sum)
	return sum
}

// KeyGen builds the spec's key generator. The returned function is pure
// (all state is in the caller's PRNG draw), so one generator is safely
// shared by every worker thread.
func (s Spec) KeyGen() KeyFn {
	n := s.KeyRange
	switch s.Dist {
	case "", DistUniform:
		return func(r uint64) uint64 { return r%n + 1 }
	case DistZipfian:
		// Gray et al.'s bounded zipfian generator (the YCSB one): ranks
		// follow P(rank=i) ∝ 1/i^theta, then a full-avalanche scramble
		// maps rank popularity onto pseudo-random keys.
		theta := s.Skew
		if theta <= 0 {
			theta = 0.99
		}
		if theta >= 1 {
			theta = 0.999 // the closed form needs theta != 1
		}
		zetan := zetaN(n, theta)
		alpha := 1 / (1 - theta)
		eta := (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zetaN(2, theta)/zetan)
		halfPow := 1 + math.Pow(0.5, theta)
		return func(r uint64) uint64 {
			u := float64(r>>11) / (1 << 53)
			uz := u * zetan
			var rank uint64
			switch {
			case uz < 1:
				rank = 1
			case uz < halfPow:
				rank = 2
			default:
				rank = 1 + uint64(float64(n)*math.Pow(eta*u-eta+1, alpha))
			}
			if rank > n {
				rank = n
			}
			return mixKey(rank)%n + 1
		}
	case DistHotspot:
		frac := s.Skew
		if frac <= 0 || frac > 1 {
			frac = 0.9
		}
		hot := n / 10
		if hot < 1 {
			hot = 1
		}
		cut := uint64(frac * float64(1<<32))
		return func(r uint64) uint64 {
			// Low 32 bits decide hot/cold; high bits pick the key, so the
			// two choices stay independent. The hot set is the fixed
			// scrambled image of [0, hot), spread across the keyspace.
			if uint64(uint32(r)) < cut {
				return mixKey((r>>32)%hot)%n + 1
			}
			return (r>>32)%n + 1
		}
	default:
		panic(fmt.Sprintf("workload: unknown key distribution %q (want %q, %q or %q)",
			s.Dist, DistUniform, DistZipfian, DistHotspot))
	}
}

// Result is the outcome of a run.
type Result struct {
	Ops     uint64 // total completed operations
	Reads   uint64
	Inserts uint64
	Deletes uint64
	Scans   uint64
	RMWs    uint64
	Elapsed time.Duration

	// Latencies holds the sampled per-operation latencies, sorted,
	// when Spec.SampleLatency was set.
	Latencies []time.Duration
}

// Percentile returns the p-th latency percentile (p in [0,100]) from the
// sampled latencies, or 0 if sampling was off.
func (r Result) Percentile(p float64) time.Duration {
	if len(r.Latencies) == 0 {
		return 0
	}
	idx := int(p / 100 * float64(len(r.Latencies)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(r.Latencies) {
		idx = len(r.Latencies) - 1
	}
	return r.Latencies[idx]
}

// MopsPerSec returns throughput in million operations per second, the unit
// of every figure in the paper.
func (r Result) MopsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds() / 1e6
}

// splitmix64 advances and hashes a PRNG state.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// PrefillHalf inserts half of the key range (a deterministic pseudo-random
// half, matching "initialized with r/2 keys"). It uses a single worker;
// prefill correctness does not depend on concurrency.
//
// Key order: targets with SortedPrefill get descending keys (O(1) per
// sorted-list insertion); everything else gets bit-reversed key order,
// which spreads insertions uniformly across the key space so external BSTs
// come out balanced and allocation patterns are realistic.
func PrefillHalf(t Target, keyRange uint64, seed int64) int {
	w := t.NewWorker()
	n := 0
	state := uint64(seed) ^ 0xabcdef12345
	insert := func(key uint64) {
		s := state ^ key*0x9e3779b97f4a7c15
		if splitmix64(&s)&1 == 0 {
			if w.Insert(key, key) {
				n++
			}
		}
	}
	if t.SortedPrefill {
		for key := keyRange; key >= 1; key-- {
			insert(key)
		}
		return n
	}
	width := bits.Len64(keyRange)
	for i := uint64(0); i < 1<<width; i++ {
		key := bits.Reverse64(i) >> (64 - width)
		if key >= 1 && key <= keyRange {
			insert(key)
		}
	}
	return n
}

// RunOps drives exactly n operations of spec's mix and key distribution
// through w on the calling goroutine, seeded as the first worker of Run
// would be. Threads, Duration and SampleLatency are ignored: a fixed,
// single-goroutine sequence is what makes a counted pass repeat exactly.
func RunOps(w Worker, spec Spec, n int) Result {
	spec.validate()
	spec.Threads, spec.SampleLatency = 1, 0
	c, _ := spec.drive(spec.KeyGen(), w, 0, uint64(n), new(atomic.Bool))
	return sum([][6]uint64{c})
}

// Run drives the workload and reports throughput. Every thread uses an
// independent PRNG; operations are chosen per the mix and keys uniformly
// from the range.
func Run(t Target, spec Spec) Result {
	spec.validate()
	if spec.Threads <= 0 {
		panic("workload: need at least one thread")
	}
	var stop atomic.Bool
	gen := spec.KeyGen()
	counts := make([][6]uint64, spec.Threads) // ops, reads, inserts, deletes, scans, rmws
	samples := make([][]time.Duration, spec.Threads)
	var wg sync.WaitGroup
	var ready sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < spec.Threads; i++ {
		wg.Add(1)
		ready.Add(1)
		go func(id int) {
			defer wg.Done()
			w := t.NewWorker()
			ready.Done()
			<-start
			counts[id], samples[id] = spec.drive(gen, w, id, math.MaxUint64, &stop)
		}(i)
	}
	ready.Wait()
	begin := time.Now()
	close(start)
	time.Sleep(spec.Duration)
	stop.Store(true)
	wg.Wait()
	res := sum(counts)
	res.Elapsed = time.Since(begin)
	if spec.SampleLatency > 0 {
		for _, s := range samples {
			res.Latencies = append(res.Latencies, s...)
		}
		sort.Slice(res.Latencies, func(i, j int) bool {
			return res.Latencies[i] < res.Latencies[j]
		})
	}
	return res
}

// drive runs worker id's operation stream through w until stop is set or
// limit operations have run, and returns its counts and sampled latencies.
func (spec Spec) drive(gen KeyFn, w Worker, id int, limit uint64, stop *atomic.Bool) ([6]uint64, []time.Duration) {
	yield := spec.Threads > runtime.GOMAXPROCS(0)
	scanMax := uint64(spec.ScanMax)
	if scanMax == 0 {
		scanMax = 100
	}
	scanner, _ := w.(Scanner)
	rmwer, _ := w.(RMWer)
	state := uint64(spec.Seed)*0x9e3779b97f4a7c15 + uint64(id+1)*0x123456789
	var ops, reads, inserts, deletes, scans, rmws uint64
	var lats []time.Duration
	rPM := spec.Mix.ReadPM
	iPM := rPM + spec.Mix.InsertPM
	dPM := iPM + spec.Mix.DeletePM
	sPM := dPM + spec.Mix.ScanPM
	for ops < limit && !stop.Load() {
		r := splitmix64(&state)
		key := gen(r)
		op := int((splitmix64(&state)) % 1000)
		var t0 time.Time
		timed := spec.SampleLatency > 0 && ops%uint64(spec.SampleLatency) == 0
		if timed {
			t0 = time.Now()
		}
		switch {
		case op < rPM:
			w.Contains(key)
			reads++
		case op < iPM:
			w.Insert(key, key)
			inserts++
		case op < dPM:
			w.Delete(key)
			deletes++
		case op < sPM:
			if scanner != nil {
				span := splitmix64(&state)%(2*scanMax) + 1
				to := key + span
				if to > spec.KeyRange {
					to = spec.KeyRange
				}
				scanner.Scan(key, to)
			} else {
				w.Contains(key)
			}
			scans++
		default:
			if rmwer != nil {
				rmwer.RMW(key, key)
			} else {
				w.Contains(key)
				w.Insert(key, key)
			}
			rmws++
		}
		if timed {
			lats = append(lats, time.Since(t0))
		}
		ops++
		if yield {
			// With more workers than cores, a descheduled
			// worker parks mid-operation for a whole scheduler
			// quantum, pinning the reclamation epoch (classic
			// EBR oversubscription starvation). Yielding at
			// operation boundaries restores op-granular
			// interleaving, as hardware threads would have.
			runtime.Gosched()
		}
	}
	return [6]uint64{ops, reads, inserts, deletes, scans, rmws}, lats
}

func (spec Spec) validate() {
	spec.Mix.validate()
	if spec.KeyRange == 0 {
		panic("workload: empty key range")
	}
}

// sum totals per-worker counts into a Result.
func sum(counts [][6]uint64) (res Result) {
	for _, c := range counts {
		res.Ops += c[0]
		res.Reads += c[1]
		res.Inserts += c[2]
		res.Deletes += c[3]
		res.Scans += c[4]
		res.RMWs += c[5]
	}
	return res
}
