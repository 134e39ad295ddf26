package structures_test

import (
	"testing"

	"mirror/internal/engine"
	"mirror/internal/structures/queue"
)

// passThrough forwards every Engine method and adds nothing: the shape of
// any counting, tracing or fault-injecting wrapper.
type passThrough struct{ engine.Engine }

// TestWrapperTransparency pins that an engine behaves identically behind a
// pass-through wrapper. Every capability a structure uses is either a
// method of engine.Engine or routed on the context, never discovered from
// the engine value's dynamic type — so the same single-threaded script must
// issue the same flushes and fences, report the same statistics (drain
// causes included) and leave the same media image, on the default engine
// and on a combining one.
func TestWrapperTransparency(t *testing.T) {
	type outcome struct {
		flushes, fences uint64
		stats           engine.Stats
		media           uint64
	}
	for _, combine := range []bool{false, true} {
		for name, build := range builders() {
			name, build, combine := name, build, combine
			policy := "default"
			if combine {
				policy = "combine"
			}
			t.Run(name+"/"+policy, func(t *testing.T) {
				t.Parallel()
				run := func(wrap bool) outcome {
					raw := engine.New(engine.Config{
						Kind: engine.MirrorDRAM, Words: 1 << 18, Track: true, Combine: combine,
					})
					e := raw
					if wrap {
						e = passThrough{raw}
					}
					c := e.NewCtx()
					set := build(e, c)
					// Insert, delete, re-insert: the deletes leave marked
					// nodes for the re-inserts' traversals to cross and snip.
					for k := uint64(1); k <= 200; k++ {
						set.Insert(c, k, k)
					}
					for k := uint64(1); k <= 200; k += 2 {
						set.Delete(c, k)
					}
					for k := uint64(1); k <= 200; k++ {
						set.Insert(c, k, k+1)
					}
					var o outcome
					o.flushes, o.fences = raw.Counters()
					o.stats = raw.Stats()
					raw.Drain(c)
					o.media = raw.PersistentDevices()[0].MediaHash()
					return o
				}
				direct, wrapped := run(false), run(true)
				if direct != wrapped {
					t.Fatalf("the wrapper changed the engine's behaviour:\n raw     %+v\n wrapped %+v", direct, wrapped)
				}
				if combine && direct.stats.CombinedFences == 0 {
					t.Fatal("the script never combined a fence; it does not exercise the combining path")
				}
			})
		}
	}
}

// TestWrapperKeepsDeferredVerdict pins the deferred-verdict family behind a
// wrapper: a dequeue's value travels in DetectEndDeferred's rval, which the
// eager DetectEnd cannot carry, so a wrapper that silently downgraded the
// call would lose it.
func TestWrapperKeepsDeferredVerdict(t *testing.T) {
	e := passThrough{engine.New(engine.Config{
		Kind: engine.MirrorDRAM, Words: 1 << 16, Track: true, Clients: 1,
	})}
	c := e.NewCtx()
	q := queue.New(e, c)

	engine.DetectBeginDeferred(e, c, 0, 1, engine.DetectEnqueue, 0, 77, true)
	q.Enqueue(c, 77)
	engine.DetectEndDeferred(e, c, true, 0)
	engine.DetectBeginDeferred(e, c, 0, 2, engine.DetectDequeue, 0, 0, false)
	v, ok := q.Dequeue(c)
	engine.DetectEndDeferred(e, c, ok, v)
	engine.DetectDrain(e, c)

	if d := e.Detect(0, 2); d.Verdict != engine.Committed || !d.KnownResult || !d.Result || d.Rval != 77 {
		t.Fatalf("dequeue verdict through the wrapper = %+v, want Committed/true with rval 77", d)
	}
	if ring := engine.DetectRingOf(e); ring != engine.DefaultDetectRing {
		t.Fatalf("DetectRingOf through the wrapper = %d, want %d", ring, engine.DefaultDetectRing)
	}
}
