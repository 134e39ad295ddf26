package pmem

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
)

// FaultSpec selects which adversarial persistence behaviors a FaultModel
// may apply beyond the baseline (every dirty line persists whole at crash,
// i.e. CrashKeepAll). Each enabled behavior widens the space of post-crash
// media images while staying inside the NVMM contract of §2.2: words
// persist atomically at 8-byte granularity, and anything not covered by a
// completed flush+fence is at the hardware's mercy.
type FaultSpec struct {
	// Torn lets a dirty line persist a strict contiguous sub-range of its
	// dirty words at crash — the partially-written-back cache line that
	// per-word flush instrumentation exists to defend against.
	Torn bool
	// Evict lets any line persist early: each device operation may write
	// the accessed line back to the media before any flush or fence, as
	// real caches may at any time. This is the one behavior that can put
	// *intermediate* (later overwritten, never fenced) values on the
	// media — no crash-time-only policy can.
	Evict bool
	// Drop lets a dirty line lose all its unfenced words at crash (the
	// per-line analogue of CrashDropAll).
	Drop bool
}

// String renders the spec in the comma-separated form ParseFaultSpec
// accepts ("torn,evict,drop"; "none" when empty).
func (s FaultSpec) String() string {
	var parts []string
	if s.Torn {
		parts = append(parts, "torn")
	}
	if s.Evict {
		parts = append(parts, "evict")
	}
	if s.Drop {
		parts = append(parts, "drop")
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// ParseFaultSpec parses a comma-separated behavior list: any of "torn",
// "evict", "drop", or the single word "none"/"" for the empty spec.
func ParseFaultSpec(s string) (FaultSpec, error) {
	var spec FaultSpec
	if s == "" || s == "none" {
		return spec, nil
	}
	for _, part := range strings.Split(s, ",") {
		switch strings.TrimSpace(part) {
		case "torn":
			spec.Torn = true
		case "evict":
			spec.Evict = true
		case "drop":
			spec.Drop = true
		case "":
		default:
			return spec, fmt.Errorf("pmem: unknown fault behavior %q (want torn|evict|drop|none)", part)
		}
	}
	return spec, nil
}

// evictPeriod is the expected number of device operations between early
// evictions when FaultSpec.Evict is enabled.
const evictPeriod = 24

// FaultModel is the seeded adversarial persistence fault injector a Device
// accepts via InjectFaults. It owns three responsibilities:
//
//   - a crash trigger that can fire at *any* device operation — every
//     store, load, flush, fence, CAS, and each line of a bulk CopyRange —
//     armed with CrashAfter, unlike FreezeAfter which counts whole calls;
//   - random early eviction of the lines operations touch (Spec.Evict);
//   - the line-granular crash adversary: at Crash time each dirty line
//     independently persists whole, drops, or tears (Spec.Torn/Drop).
//
// Every decision is drawn from one seeded RNG in consultation order, so a
// single-threaded run is exactly reproducible from (seed, schedule): same
// seed, same operation sequence, same post-crash media image. A FaultModel
// is safe for concurrent use (decisions serialize on an internal lock),
// but concurrent runs are only statistically — not bitwise — reproducible,
// because the consultation order then depends on goroutine interleaving.
type FaultModel struct {
	mu         sync.Mutex
	rng        *rand.Rand
	spec       FaultSpec
	ops        int64 // device operations consulted so far
	crashAfter int64 // >0: the n-th consulted op from now freezes the device
	crashedAt  int64 // op index where the trigger fired (0 = not yet)
}

// NewFaultModel creates a fault model with the given seed and behaviors.
// The crash trigger starts disarmed; arm it with CrashAfter.
func NewFaultModel(seed int64, spec FaultSpec) *FaultModel {
	return &FaultModel{rng: rand.New(rand.NewSource(seed)), spec: spec}
}

// CrashAfter arms the sub-operation crash trigger: the n-th subsequently
// consulted device operation freezes the device (and panics ErrFrozen)
// before executing. n <= 0 disarms. The trigger is one-shot.
func (f *FaultModel) CrashAfter(n int64) {
	f.mu.Lock()
	f.crashAfter = n
	f.mu.Unlock()
}

// Ops returns how many device operations have consulted the model — the
// op-count clock CrashAfter is measured on. Fuzzers choose a crash
// placement by running a schedule once and sampling within [1, Ops()].
func (f *FaultModel) Ops() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// CrashedAt returns the op index at which the armed trigger fired, or 0 if
// it has not fired.
func (f *FaultModel) CrashedAt() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashedAt
}

// step is the per-operation consultation: it advances the op clock and
// returns whether the accessed line should evict early and whether the
// crash trigger fires on this operation.
func (f *FaultModel) step() (evict, crash bool) {
	f.mu.Lock()
	f.ops++
	if f.spec.Evict && f.rng.Int63n(evictPeriod) == 0 {
		evict = true
	}
	if f.crashAfter > 0 {
		f.crashAfter--
		if f.crashAfter == 0 {
			crash = true
			f.crashedAt = f.ops
		}
	}
	f.mu.Unlock()
	return evict, crash
}

// lineFate decides one dirty line's fate at crash time given how many of
// its words are dirty: 0 = persist whole, 1 = drop, 2 = tear. Persisting
// is always a candidate; drop and tear require the corresponding spec
// behavior, and tearing needs at least two dirty words (a strict sub-range
// of one word would be a drop).
func (f *FaultModel) lineFate(dirty int) int {
	candidates := []int{0}
	if f.spec.Drop {
		candidates = append(candidates, 1)
	}
	if f.spec.Torn && dirty > 1 {
		candidates = append(candidates, 2)
	}
	if len(candidates) == 1 {
		return 0
	}
	return candidates[f.rng.Intn(len(candidates))]
}

// tearRange picks the strict contiguous sub-range [start, start+n) of a
// line's dirty-word list that persists when the line tears.
func (f *FaultModel) tearRange(dirty int) (start, n int) {
	n = 1 + f.rng.Intn(dirty-1) // 1 <= n < dirty: strictly partial
	start = f.rng.Intn(dirty - n + 1)
	return start, n
}

// applyCrash runs the line-granular eviction adversary over the device's
// dirty lines in ascending order (Device.crashLines), mutating the media
// image in place. The caller (Device.Crash) holds the device quiesced.
func (f *FaultModel) applyCrash(d *Device) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var dirty [WordsPerLine]int // offsets of this line's dirty words
	d.crashLines(func(base int) {
		n := 0
		for off := base; off < base+WordsPerLine; off++ {
			if d.words[off] != d.media[off] {
				dirty[n] = off
				n++
			}
		}
		switch f.lineFate(n) {
		case 0: // persist the whole line
			for _, off := range dirty[:n] {
				d.media[off] = d.words[off]
			}
		case 1: // drop: unfenced words are lost
		case 2: // tear: a strict contiguous sub-range of the dirty words persists
			start, k := f.tearRange(n)
			for _, off := range dirty[start : start+k] {
				d.media[off] = d.words[off]
			}
		}
	})
}

// InjectFaults installs a fault model on the device (nil removes it).
// While installed, every operation routes through the slow path to consult
// the model, and Crash applies the model's line-granular adversary instead
// of the CrashPolicy argument. Install or remove only while no goroutine
// is operating on the device (e.g. before the workload under test starts):
// the model pointer itself is unsynchronized and relies on the
// happens-before edge of starting the worker goroutines.
func (d *Device) InjectFaults(fm *FaultModel) {
	d.fault = fm
	if fm != nil {
		d.setState(stateFault)
	} else {
		d.clearState(stateFault)
	}
}

// faultTick consults the installed fault model for one device operation on
// the line containing off (off == 0 for offset-less operations such as
// fences). An early eviction writes the accessed line back to the media
// before the operation executes; a firing crash trigger freezes the device
// and unwinds, exactly like an exhausted FreezeAfter countdown.
func (d *Device) faultTick(off uint64) {
	fm := d.fault
	if fm == nil {
		return
	}
	evict, crash := fm.step()
	if evict && off != 0 && d.track {
		// An eviction copies the line to media but is not a commit
		// guarantee: the line stays pending on every set that flushed it.
		d.commitLines([]uint64{off >> lineShift})
	}
	if crash {
		d.setState(stateFrozen)
		panic(ErrFrozen)
	}
}

// fnv64Offset and fnv64Prime are the FNV-1a constants used by MediaHash.
const (
	fnv64Offset = 14695981039346656037
	fnv64Prime  = 1099511628211
)

// MediaHash returns an FNV-1a hash of the media image, the fingerprint the
// fault fuzzer uses to assert that replaying a (seed, schedule) pair
// reproduces the exact same post-crash image. It requires a tracking
// device and a quiesced system.
func (d *Device) MediaHash() uint64 {
	if !d.track {
		panic("pmem: MediaHash on non-tracking device")
	}
	h := uint64(fnv64Offset)
	for _, w := range d.media {
		for i := 0; i < 64; i += 8 {
			h ^= (w >> i) & 0xff
			h *= fnv64Prime
		}
	}
	return h
}
