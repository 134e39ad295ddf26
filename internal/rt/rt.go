// Package rt is the runtime: the one place a set of durable structures
// comes to life over one persistence engine. Open builds the engine — or
// attaches to the media file a previous incarnation left — and discharges
// the recovery obligation of §4.3.3 once, for every structure that
// incarnation recorded, before any handle exists: trace from the roots,
// rebuild rep_v and the allocator, repair, verify. The mirror facade's
// Runtime is this type, and mirrord's server is one of these plus the wire.
// DESIGN.md "One runtime" gives the attach order and the sidecar's rules.
package rt

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"mirror/internal/engine"
	"mirror/internal/pmem"
	"mirror/internal/structures"
	"mirror/internal/structures/bst"
	"mirror/internal/structures/hashtable"
	"mirror/internal/structures/list"
	"mirror/internal/structures/queue"
	"mirror/internal/structures/skiplist"
)

// walker is what every structure handle offers the post-attach check: a
// full read-only walk.
type walker interface{ Len(c *engine.Ctx) int }

// kind is one structure type's whole recovery obligation, as a unit so no
// caller can run one half without the other: the tracer of its reachable
// objects, which also relinks the words recovery rebuilds instead of
// copying (the skip list's towers, skiplist.TracerAt), and open, which
// initializes it at an unset root and otherwise adopts it, running the
// repair pass for what a crash may legally break (bst.NewAt). buckets
// sizes a new hash table only. walked says the trace already walks the
// whole structure and panics on what the verify walk would catch — the
// skip list's level-0 cycle or impossible height — so the verify walk
// skips it.
type kind struct {
	fields int // root fields owned, from the recorded one up
	tracer func(e engine.Engine, f int) engine.Tracer
	open   func(e engine.Engine, c *engine.Ctx, f, buckets int) walker
	walked bool
}

var kinds = map[string]kind{
	"list": {1, func(e engine.Engine, f int) engine.Tracer { return list.TracerAt(e, f) },
		func(e engine.Engine, _ *engine.Ctx, f, _ int) walker { return list.New(e, f) }, false},
	"hashtable": {2, hashtable.TracerAt,
		func(e engine.Engine, c *engine.Ctx, f, n int) walker { return hashtable.NewAt(e, c, n, f) }, false},
	"bst": {1, bst.TracerAt,
		func(e engine.Engine, c *engine.Ctx, f, _ int) walker { return bst.NewAt(e, c, f) }, false},
	"skiplist": {1, skiplist.TracerAt,
		func(e engine.Engine, c *engine.Ctx, f, _ int) walker { return skiplist.NewAt(e, c, f) }, true},
	"queue": {2, queue.TracerAt,
		func(e engine.Engine, c *engine.Ctx, f, _ int) walker { return queue.NewAt(e, c, f) }, false},
}

// root is one structure's record: its kind and first root field, which the
// sidecar persists, and its handle once it has one.
type root struct {
	Kind  string `json:"kind"`
	Field int    `json:"field"`
	h     walker
}

// geometry is what the engine's word layout depends on: a mismatch means
// the image cannot be interpreted. It is written and compared with the
// engine's defaults applied (engine.Config.SetDefaults), so a zero field and
// its default name the same layout, in the sidecar as in the config.
// Combine is always written false; the key remains so that an image an older
// mirrord wrote with fence combining on — whose completed operations were
// allowed to be missing — is refused like any other mismatch instead of being
// adopted. Layout is the structures' node layout (layoutVersion); a sidecar
// without it was written before nodes had plain words, and reads as layout 0.
type geometry struct {
	Kind       int  `json:"kind"`
	Words      int  `json:"words"`
	RootFields int  `json:"root_fields"`
	Ring       int  `json:"ring"`
	Clients    int  `json:"clients"`
	Combine    bool `json:"combine"`
	Layout     int  `json:"layout"`
}

// layoutVersion names the node layout of every structure: 1 is cells first,
// then the write-once and rebuilt fields as plain words (engine.Plain); 2
// adds that a skip-list delete's level-0 mark may carry its operation's tag
// in the bits from engine.TagShift up, which a layout-1 reader would take
// for part of a Ref; 3 adds that a skip-list node's height word may carry
// the tag of the insert that published it, which a layout-2 reader would
// take for part of the height, and that a descriptor entry names that word
// and records witnesses (engine detect.go O6, O7). Bump it whenever a
// structure's field indexes or word encodings change.
const layoutVersion = 3

// sidecar is the record next to a media file that tells a reattachable
// image from garbage: the geometry, and which kind owns which root fields.
type sidecar struct {
	geometry
	Roots []*root `json:"roots"`
}

// SidecarPath returns where Open keeps the sidecar of a media file.
func SidecarPath(mediaPath string) string { return mediaPath + ".meta" }

// Report is what the runtime's last recovery cost, phase by phase: the
// attach Open ran, or a Recover after a Crash (whose Open and Verify are
// zero). An attach copies LiveWords per replica beside the roots and the
// descriptor region, so its time follows the live data, not Words.
// LiveWords/Objects is the mean object's footprint in words.
type Report struct {
	Open      time.Duration // build the engine over the media: map it, copy nothing
	Recover   time.Duration // restore the roots, then one streamed pass: trace, restore and mirror every span, rebuild the allocator
	Repair    time.Duration // adopting every structure, with its repair pass if it has one (the skip list's towers are relinked in Recover)
	Verify    time.Duration // the post-attach walk of every structure whose trace did not check it
	LiveWords uint64        // words the trace reached, per replica
	Objects   uint64        // spans the trace visited
	Words     int           // the device capacity
	Workers   int           // the recovery pass's worker count: GOMAXPROCS for an attach, 1 for Recover
}

// Runtime owns one engine, the persistent roots and the structures hanging
// off them. All structures created from one runtime share its memory and
// are recovered together.
type Runtime struct {
	eng      engine.Engine
	cfg      engine.Config
	attached bool
	report   Report

	mu       sync.Mutex
	roots    []*root
	nextRoot int
}

// Open builds a runtime over cfg, defaulted as engine.New defaults it, and
// refuses a cfg engine.Config.Validate refuses. Without cfg.MediaPath the
// image lives in process memory. With it, Open attaches when the sidecar
// holds the same geometry and a root record of known kinds, refuses any
// other sidecar, and wipes a file that has none. Attaching traces
// every recorded structure in record order, rebuilds rep_v and the allocator,
// repairs, and walks every structure once: a corrupt image fails here, not
// under load. The attach's recovery pass runs at GOMAXPROCS
// workers, so the copy and the allocator scan overlap the trace.
func Open(cfg engine.Config) (*Runtime, error) { return OpenWith(cfg, nil) }

// OpenWith is Open over the engine newEngine builds (engine.New if nil):
// the crash adversaries' seam for deliberately broken engines and for a
// recovery pipeline other than the sequential one.
func OpenWith(cfg engine.Config, newEngine func(engine.Config) engine.Engine) (*Runtime, error) {
	if newEngine == nil {
		newEngine = engine.New
	}
	cfg.SetDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := &Runtime{cfg: cfg}
	if cfg.MediaPath != "" {
		if !cfg.Kind.Durable() {
			return nil, fmt.Errorf("runtime: engine kind %v is not durable", cfg.Kind)
		}
		raw, err := os.ReadFile(SidecarPath(cfg.MediaPath))
		switch {
		case err == nil:
			var have sidecar
			ok := json.Unmarshal(raw, &have) == nil && have.defaulted() == r.geometry() && have.Roots != nil
			for _, s := range have.Roots {
				_, known := kinds[s.Kind]
				ok = ok && known
			}
			if !ok {
				return nil, fmt.Errorf("runtime: media %s was written with a different configuration", cfg.MediaPath)
			}
			r.roots, r.attached = have.Roots, true
		case errors.Is(err, os.ErrNotExist):
			// No sidecar: either a first start or a crash before the roots
			// were durable. Either way the image (if any) is garbage — wipe it.
			if err := os.Remove(cfg.MediaPath); err != nil && !errors.Is(err, os.ErrNotExist) {
				return nil, err
			}
		default:
			return nil, err
		}
	}
	r.cfg.Attach = r.attached
	t := time.Now()
	r.eng = newEngine(r.cfg)
	open := time.Since(t)
	var err error
	if r.attached {
		err = fsck(func() {
			c := r.recover(runtime.GOMAXPROCS(0))
			defer c.Close()
			t := time.Now()
			r.verify(c)
			r.report.Verify = time.Since(t)
		})
		r.report.Open = open
	} else {
		// engine.New leaves the root cells durable: only now may a future
		// incarnation trust the image.
		err = r.writeSidecar()
	}
	if err != nil {
		r.Close()
		return nil, err
	}
	return r, nil
}

func (r *Runtime) geometry() geometry {
	return geometry{Kind: int(r.cfg.Kind), Words: r.cfg.Words, RootFields: r.cfg.RootFields,
		Ring: r.cfg.DetectRing, Clients: r.cfg.Clients, Layout: layoutVersion}
}

// defaulted returns g with the engine's defaults applied to its zero fields,
// which a sidecar written before the runtime defaulted its config may hold.
func (g geometry) defaulted() geometry {
	cfg := engine.Config{Words: g.Words, RootFields: g.RootFields, Clients: g.Clients, DetectRing: g.Ring}
	cfg.SetDefaults()
	g.Words, g.RootFields, g.Ring = cfg.Words, cfg.RootFields, cfg.DetectRing
	return g
}

// writeSidecar replaces the sidecar by rename, so a crash leaves the old
// record or the new one, never a torn one.
func (r *Runtime) writeSidecar() error {
	if r.cfg.MediaPath == "" {
		return nil
	}
	raw, err := json.Marshal(sidecar{r.geometry(), append([]*root{}, r.roots...)})
	if err != nil {
		return err
	}
	path := SidecarPath(r.cfg.MediaPath)
	if err := os.WriteFile(path+".tmp", raw, 0o644); err != nil {
		return err
	}
	return os.Rename(path+".tmp", path)
}

// fsck runs an attach's recovery, repair and verify walk, turning a panic
// into an error: a corrupt image (dangling reference, cycle, unreadable
// node) panics or hangs inside the engine, a trace or a repair pass, so
// finishing proves every reachable node was traced, rebuilt, and is
// consistent enough to traverse.
func fsck(attach func()) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("runtime: post-attach verification failed: %v", p)
		}
	}()
	attach()
	return nil
}

// verify is the post-attach walk: one full read-only walk (Len) per
// structure whose trace did not already check it.
func (r *Runtime) verify(c *engine.Ctx) {
	for _, s := range r.roots {
		if s.h != nil && !kinds[s.Kind].walked {
			s.h.Len(c)
		}
	}
}

// Close releases the runtime's file-backed media mapping; the file keeps the
// fenced image for a later Open. The engine is frozen: no operation may run
// after Close, but Counters, Stats and Footprint still answer.
func (r *Runtime) Close() error {
	r.eng.Freeze()
	for _, d := range engine.PersistentDevices(r.eng) {
		if err := d.Close(); err != nil {
			return err
		}
	}
	return nil
}

// Attached reports whether Open adopted an existing media image.
func (r *Runtime) Attached() bool { return r.attached }

// Recovery reports the runtime's last recovery; zero if it never ran one.
func (r *Runtime) Recovery() Report { return r.report }

// Engine exposes the underlying persistence engine for advanced use.
func (r *Runtime) Engine() engine.Engine { return r.eng }

// Kind returns the runtime's engine kind.
func (r *Runtime) Kind() engine.Kind { return r.cfg.Kind }

// NewCtx creates a per-goroutine context.
func (r *Runtime) NewCtx() *engine.Ctx { return r.eng.NewCtx() }

// Counters reports the cumulative number of flush and fence instructions
// issued by the runtime's devices.
func (r *Runtime) Counters() (flushes, fences uint64) { return r.eng.Counters() }

// At returns the structure of kind k ("list", "hashtable", "bst",
// "skiplist" or "queue") at root field f: the handle Open or Recover
// adopted, or one opened now; buckets sizes a new hash table only. A field
// no structure owns is recorded in the sidecar first, so a crash
// before its root store leaves a recorded root that a later Open adopts
// empty and this call initializes. A field another kind owns is refused.
func (r *Runtime) At(c *engine.Ctx, k string, f, buckets int) (any, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	kd, ok := kinds[k]
	if !ok {
		return nil, fmt.Errorf("runtime: unknown structure kind %q", k)
	}
	n := kd.fields
	if f < 0 || f+n > r.cfg.RootFields {
		return nil, fmt.Errorf("runtime: root fields [%d, %d) outside the %d a runtime has", f, f+n, r.cfg.RootFields)
	}
	var s *root
	for _, o := range r.roots {
		if o.Field < f+n && f < o.Field+kinds[o.Kind].fields {
			if o.Field != f || o.Kind != k {
				return nil, fmt.Errorf("runtime: root field %d holds a %s, not a %s: the media was written with a different configuration",
					o.Field, o.Kind, k)
			}
			s = o
		}
	}
	if s == nil {
		s = &root{Kind: k, Field: f}
		r.roots = append(r.roots, s)
		if err := r.writeSidecar(); err != nil {
			r.roots = r.roots[:len(r.roots)-1]
			return nil, err
		}
	}
	if s.h == nil {
		s.h = kd.open(r.eng, c, f, buckets)
	}
	return s.h, nil
}

// next is At at the runtime's next free root fields: the k-th New* call of
// a reopened runtime gets what the earlier k-th call created. It panics on
// a refusal.
func (r *Runtime) next(c *engine.Ctx, k string, buckets int) any {
	r.mu.Lock()
	f := r.nextRoot
	r.nextRoot += kinds[k].fields
	r.mu.Unlock()
	h, err := r.At(c, k, f, buckets)
	if err != nil {
		panic(err)
	}
	return h
}

// NewList creates a durable Harris linked list.
func (r *Runtime) NewList(c *engine.Ctx) structures.Set { return r.next(c, "list", 0).(*list.List) }

// NewHashTable creates a durable hash table with the given power-of-two
// bucket count.
func (r *Runtime) NewHashTable(c *engine.Ctx, buckets int) structures.Set {
	return r.next(c, "hashtable", buckets).(*hashtable.Table)
}

// NewBST creates a durable Natarajan–Mittal binary search tree.
func (r *Runtime) NewBST(c *engine.Ctx) structures.Set { return r.next(c, "bst", 0).(*bst.BST) }

// NewSkipList creates a durable Fraser-style skip list.
func (r *Runtime) NewSkipList(c *engine.Ctx) structures.Set {
	return r.next(c, "skiplist", 0).(*skiplist.SkipList)
}

// NewQueue creates a durable FIFO queue.
func (r *Runtime) NewQueue(c *engine.Ctx) *queue.Queue { return r.next(c, "queue", 0).(*queue.Queue) }

// Freeze makes every device operation panic, unwinding in-flight
// operations so a crash can be taken at an arbitrary moment. Only crash
// tests and demos need it; Crash freezes implicitly.
func (r *Runtime) Freeze() { r.eng.Freeze() }

// Crash simulates a full-system power failure: volatile devices are wiped,
// and unfenced persistent writes survive according to the policy. All
// goroutines operating on the runtime must have unwound (see Freeze).
func (r *Runtime) Crash(policy pmem.CrashPolicy, seed int64) {
	r.eng.Crash(policy, rand.New(rand.NewSource(seed)))
}

// Recover rebuilds all volatile state after Crash: every structure is
// traced, the volatile replica is reconstructed, unreachable memory is
// reclaimed (§4.3.3), and every repair pass runs. Structures created before
// the crash remain usable (on a durable engine); contexts do not — create
// fresh ones. It is RecoverParallel(1).
func (r *Runtime) Recover() { r.RecoverParallel(1) }

// RecoverParallel is Recover at that many workers: the recorded structures
// are traced once, in order, on the caller, and the rest of the pass — the
// volatile-replica copy, the span restore of an attach and the allocator
// scan — runs batch by batch on up to parallelism-1 other goroutines while
// the trace continues (see internal/recovery). The repair passes run
// afterwards, sequentially.
func (r *Runtime) RecoverParallel(parallelism int) { r.recover(parallelism).Close() }

// recover runs the recovery pipeline over every recorded structure, adopts
// (repairs) each one whose root is set, and returns its context. Nothing is
// left to drain: a crash empties the relaxed-line registry, recovery
// registers no line, and the one repair pass (the BST's) installs with CAS,
// durable before visible; were an install deferred, the registry would
// still be drained before any node the pass retires is reused.
func (r *Runtime) recover(parallelism int) *engine.Ctx {
	r.mu.Lock()
	defer r.mu.Unlock()
	objects := uint64(0)
	trace := func(read func(engine.Ref, int) uint64, visit func(engine.Ref, int, int), relink func(engine.Ref, int, uint64)) {
		for _, s := range r.roots {
			kinds[s.Kind].tracer(r.eng, s.Field)(read, func(ref engine.Ref, fields, rebuilt int) {
				objects++
				visit(ref, fields, rebuilt)
			}, relink)
		}
	}
	t := time.Now()
	r.eng.RecoverWith(trace, engine.RecoverOptions{Parallelism: parallelism})
	live, _ := r.eng.Footprint()
	r.report = Report{Recover: time.Since(t), LiveWords: live, Objects: objects, Words: r.cfg.Words,
		Workers: max(parallelism, 1)}
	t = time.Now()
	c := r.eng.NewCtx()
	for _, s := range r.roots {
		r.eng.OpBegin(c)
		set := r.eng.TraversalLoad(c, engine.Root, s.Field) != 0
		r.eng.OpEnd(c)
		// A root the crash left unset has no structure: At initializes it.
		s.h = nil
		if set {
			s.h = kinds[s.Kind].open(r.eng, c, s.Field, 1)
		}
	}
	r.report.Repair = time.Since(t)
	return c
}
