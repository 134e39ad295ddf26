package structures_test

import (
	"testing"

	"mirror/internal/engine"
	"mirror/internal/pmem"
)

// casCounter counts the calls that run Mirror's Figure-4 loop.
type casCounter struct {
	engine.Engine
	calls uint64
}

func (w *casCounter) CAS(c *engine.Ctx, r engine.Ref, f int, old, new uint64) bool {
	w.calls++
	return w.Engine.CAS(c, r, f, old, new)
}

func (w *casCounter) CASRelaxed(c *engine.Ctx, r engine.Ref, f int, old, new uint64) bool {
	w.calls++
	return w.Engine.CASRelaxed(c, r, f, old, new)
}

func (w *casCounter) Store(c *engine.Ctx, r engine.Ref, f int, v uint64) {
	w.calls++
	w.Engine.Store(c, r, f, v)
}

// TestMirrorReadsTouchDRAMOnly states the paper's read claim as a count, on
// every set. On a read-only mix MirrorDRAM issues no load and no store to
// rep_p — its reads are served by rep_v on DRAM — while Izraelevitz,
// NVTraverse and OrigNVMM issue at least one NVMM load per operation. Mirror
// writes do read NVMM: an insert of a new key loads rep_p exactly once per
// Figure-4 CAS attempt (the pair read that validates the replicas), and
// nothing more however tall a skip-list tower it links: the links above
// level 0 are rebuilt plain words, written by one CAS on rep_v.
func TestMirrorReadsTouchDRAMOnly(t *testing.T) {
	const keys, reads = 128, 512
	for name, build := range builders() {
		t.Run(name, func(t *testing.T) {
			for _, kind := range []engine.Kind{engine.MirrorDRAM, engine.Izraelevitz, engine.NVTraverse, engine.OrigNVMM} {
				e := &casCounter{Engine: engine.New(engine.Config{Kind: kind, Words: 1 << 18})}
				c := e.NewCtx()
				set := build(e, c)
				for k := uint64(2); k <= 2*keys; k += 2 {
					set.Insert(c, k, k)
				}
				devs := e.Devices()
				got := pmem.Count(devs, func() {
					for i := uint64(0); i < reads; i++ {
						set.Contains(c, i%(2*keys)+1)
					}
				})
				if kind != engine.MirrorDRAM {
					if got[0].Model != pmem.NVMMModel() || got[0].Loads < reads {
						t.Errorf("%v: %d loads on %+v over %d reads, want >= 1 NVMM load per read", kind, got[0].Loads, got[0].Model, reads)
					}
					continue
				}
				if p := got[0]; p.Loads != 0 || p.Stores != 0 {
					t.Errorf("Mirror reads touched rep_p: %d loads, %d stores over %d reads", p.Loads, p.Stores, reads)
				}
				if v := got[1]; v.Model != pmem.DRAMModel() || v.Loads < reads {
					t.Errorf("Mirror reads: %d loads on rep_v %+v, want >= 1 DRAM load per read", v.Loads, v.Model)
				}

				for k := uint64(2*keys + 1); k < 2*keys+16; k += 2 {
					s0, calls0 := e.Stats(), e.calls
					var ok bool
					got = pmem.Count(devs, func() { ok = set.Insert(c, k, 1) })
					s1 := e.Stats()
					attempts := e.calls - calls0 + s1.Helps - s0.Helps + s1.Retries - s0.Retries
					if !ok || attempts == 0 || got[0].Loads != attempts {
						t.Errorf("Mirror insert-new of %d: %d rep_p loads over %d Figure-4 attempts (inserted %v), want one per attempt",
							k, got[0].Loads, attempts, ok)
					}
				}
			}
		})
	}
}
