package crashtest

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"mirror/internal/engine"
	"mirror/internal/pmem"
	"mirror/internal/rt"
	"mirror/internal/structures"
	"mirror/internal/structures/skiplist"
	"mirror/internal/verify"
)

// adoptCounter counts the node reads and rebuilt-word writes that reach the
// engine through the structures' role: everything but the root object.
type adoptCounter struct {
	engine.Engine
	loads, rebuilt int
}

func (a *adoptCounter) Load(c *engine.Ctx, ref engine.Ref, field int) uint64 {
	if ref != engine.Root {
		a.loads++
	}
	return a.Engine.Load(c, ref, field)
}

func (a *adoptCounter) TraversalLoad(c *engine.Ctx, ref engine.Ref, field int) uint64 {
	if ref != engine.Root {
		a.loads++
	}
	return a.Engine.TraversalLoad(c, ref, field)
}

func (a *adoptCounter) CASRebuilt(c *engine.Ctx, ref engine.Ref, field int, old, new uint64) bool {
	a.rebuilt++
	return a.Engine.CASRebuilt(c, ref, field, old, new)
}

// towers returns every upper-level word of the skip list at root field 0 —
// the head's and every level-0 node's, marked nodes included — keyed by node
// and level.
func towers(e engine.Engine, c *engine.Ctx) map[[2]uint64]uint64 {
	e.OpBegin(c)
	defer e.OpEnd(c)
	words := map[[2]uint64]uint64{}
	head := e.TraversalLoad(c, engine.Root, 0)
	for n := head; n != 0; {
		for i := 1; i < skiplist.Height(e.TraversalLoad(c, n, skiplist.FieldTop)); i++ {
			words[[2]uint64{n, uint64(i)}] = e.TraversalLoad(c, n, skiplist.Link(i))
		}
		n = structures.Unmark(e.TraversalLoad(c, n, skiplist.FieldNext))
	}
	return words
}

// TestSkipListRelink checks that the recovery trace relinks the skip list's
// towers to what a separate walk of level 0 would rebuild, at about 32
// crash points spread over the sweep script, on every durable engine and
// crash policy. Each
// crash image is recovered at Parallelism 1, 2 and 4. Recovery leaves the
// media as it found it, and the checks' reads can persist only rebuilt
// words (an Izraelevitz load fences its line), which no trace reads, so a
// re-crash hands the next recovery the same image as far as its trace can
// tell. After each recovery verify.SkipList finds complete towers, every tower
// word is the same at the three worker counts, and adopting the recovered
// list read nothing but its root and wrote no rebuilt word — no second
// walk. At 2 and 4 workers the trace's tower writes run beside the sinks'
// copies; under the race detector they must never meet.
func TestSkipListRelink(t *testing.T) {
	script := sweepScript()
	policies := []pmem.CrashPolicy{pmem.CrashDropAll, pmem.CrashKeepAll, pmem.CrashRandom}
	for _, kind := range durableKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			cfg := engine.Config{Kind: kind, Words: 1 << 15, RootFields: 8, Track: true}
			step := crashStride(t, cfg, script, 32)
			for _, policy := range policies {
				rng := rand.New(rand.NewSource(29))
				for n := int64(1); ; n += step {
					cnt := &adoptCounter{}
					r, err := rt.OpenWith(cfg,
						func(cfg engine.Config) engine.Engine { cnt.Engine = engine.New(cfg); return cnt })
					if err != nil {
						t.Fatal(err)
					}
					e := r.Engine()
					e.FreezeAfter(n)
					_, _, froze := replayScript(r, "skiplist", script)
					e.Crash(policy, rng)
					dev := engine.PersistentDevices(e)[0]
					var first map[[2]uint64]uint64
					for _, par := range []int{1, 2, 4} {
						if par > 1 {
							e.Crash(pmem.CrashDropAll, nil)
						}
						media := dev.MediaHash()
						cnt.loads, cnt.rebuilt = 0, 0
						r.RecoverParallel(par)
						if h := dev.MediaHash(); h != media {
							t.Fatalf("policy=%v point=%d par=%d: recovery changed the media (%#x, was %#x)", policy, n, par, h, media)
						}
						if cnt.loads != 0 || cnt.rebuilt != 0 {
							t.Fatalf("policy=%v point=%d par=%d: adopting the recovered list made %d node loads and %d CASRebuilt, want none",
								policy, n, par, cnt.loads, cnt.rebuilt)
						}
						c := e.NewCtx()
						if e.TraversalLoad(c, engine.Root, 0) == 0 {
							break // the crash came before the list's root store
						}
						if rep := verify.SkipList(e, c, 0); !rep.Ok() {
							t.Fatalf("policy=%v point=%d par=%d: %s", policy, n, par, rep)
						}
						got := towers(e, c)
						if par == 1 {
							first = got
						} else if !reflect.DeepEqual(got, first) {
							t.Fatalf("policy=%v point=%d: towers at %d workers differ from one worker's:\n%v\n%v", policy, n, par, got, first)
						}
					}
					if !froze {
						break
					}
				}
			}
		})
	}
}

// TestCorruptSkipListFailsAttach writes media images whose skip list has a
// level-0 cycle or a node of height 0 or 17, and attaches to each at
// GOMAXPROCS 1 and 2: the attach must fail with "post-attach verification
// failed", not hang. At two workers the recovery trace raises the panic
// beside a sink goroutine, and recovery.Stream re-raises it on the caller.
func TestCorruptSkipListFailsAttach(t *testing.T) {
	type damage func(e engine.Engine, c *engine.Ctx, nodes []engine.Ref)
	height := func(h uint64) damage {
		return func(e engine.Engine, c *engine.Ctx, nodes []engine.Ref) { setHeight(e, c, nodes[3], h) }
	}
	corrupt := map[string]damage{
		"cycle": func(e engine.Engine, c *engine.Ctx, nodes []engine.Ref) {
			e.Store(c, nodes[len(nodes)-1], skiplist.FieldNext, nodes[len(nodes)/2])
		},
		"height 0":  height(0),
		"height 17": height(skiplist.MaxLevel + 1),
	}
	for _, kind := range []engine.Kind{engine.MirrorDRAM, engine.NVTraverse} {
		for name, damage := range corrupt {
			for _, procs := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/%s/GOMAXPROCS=%d", kind, name, procs), func(t *testing.T) {
					cfg := engine.Config{Kind: kind, Words: 1 << 17, RootFields: 8, Track: true,
						MediaPath: t.TempDir() + "/media"}
					r, err := rt.Open(cfg)
					if err != nil {
						t.Fatal(err)
					}
					c := r.NewCtx()
					s := r.NewSkipList(c)
					// Enough keys for several trace batches, so that at two
					// workers a sink is running when the trace panics.
					const keys = 3 * 512
					for k := uint64(1); k <= keys; k++ {
						s.Insert(c, k, k)
					}
					e := r.Engine()
					var nodes []engine.Ref
					e.OpBegin(c)
					for n := structures.Unmark(e.Load(c, e.Load(c, engine.Root, 0), skiplist.FieldNext)); n != 0; n = structures.Unmark(e.Load(c, n, skiplist.FieldNext)) {
						nodes = append(nodes, n)
					}
					damage(e, c, nodes)
					e.OpEnd(c)
					if err := r.Close(); err != nil {
						t.Fatal(err)
					}
					defer setProcs(procs)()
					r, err = rt.Open(cfg)
					if err == nil {
						r.Close()
						t.Fatal("attach to a corrupt skip list succeeded")
					}
					if want := "post-attach verification failed"; !strings.Contains(err.Error(), want) {
						t.Fatalf("attach error %q, want %q", err, want)
					}
				})
			}
		}
	}
}

// crashStride returns the step that spreads about points crash points over
// the device operations of one crash-free run of script on a skip list.
func crashStride(t *testing.T, cfg engine.Config, script []sweepOp, points int) int64 {
	r, err := rt.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ops := uint64(0)
	for _, d := range pmem.Count(engine.PersistentDevices(r.Engine()), func() { replayScript(r, "skiplist", script) }) {
		ops += d.Loads + d.Stores + d.Flushes + d.Fences
	}
	return int64(ops/uint64(points)) + 1
}

// setHeight overwrites a published node's tower height, a write-once word,
// the only way such a word is ever written: StoreInit, then a publish fence
// to make it durable.
func setHeight(e engine.Engine, c *engine.Ctx, n engine.Ref, h uint64) {
	e.StoreInit(c, n, skiplist.FieldTop, h)
	e.Publish(c, n)
}

// setProcs sets GOMAXPROCS and returns what restores it.
func setProcs(n int) func() {
	old := runtime.GOMAXPROCS(n)
	return func() { runtime.GOMAXPROCS(old) }
}
