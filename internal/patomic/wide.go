package patomic

// This file implements the §4.1.2 extension for data structures that use
// double-word fields with a wide CAS: "in all algorithms with double-word
// fields that we are aware of, these fields contain a unique value for
// each modification — most use one of the words for versioning. In such
// cases, the Mirror construction works well without adding an additional
// version word and can be applied as is."
//
// A WideCell is a two-word field (value, version) whose *user-supplied*
// version plays the role of the sequence number: it must strictly increase
// with every successful modification. The replica invariants and the help
// protocol are the same as the ordinary cell's; the memory cost is zero
// extra words.
//
// Persistence-tearing note: x86 guarantees 8-byte persistence atomicity,
// so an *unfenced* in-flight wide update may reach the media with only one
// of its two words (e.g. the old value with the new version). Completed
// operations are unaffected — their fence covers both words — and the
// recovered pair is re-adopted as the cell's state, which is sound for the
// versioned-pointer algorithms this extension targets because the version
// word is ABA bookkeeping, not payload. The ordinary patomic cell has the
// same property with its internal sequence number, where it is invisible
// by construction.

// WideLoad returns the cell's (value, version) pair from the volatile
// replica, wait-free.
func (m *Mem) WideLoad(off uint64) (val, ver uint64) {
	return m.V.LoadPair(off)
}

// WideCAS atomically replaces (expVal, expVer) with (newVal, newVer),
// persisting before publishing exactly like CompareAndSwap. newVer must be
// strictly greater than expVer — the caller's versioning discipline is
// what makes the two-replica protocol sound, so this is checked.
// It returns whether the swap happened plus the observed pair.
func (m *Mem) WideCAS(ctx *Ctx, off uint64, expVal, expVer, newVal, newVer uint64) (bool, uint64, uint64) {
	if newVer <= expVer {
		panic("patomic: WideCAS requires a strictly increasing version")
	}
	for {
		pv, ps := m.P.LoadPair(off)
		vv, vs := m.V.LoadPair(off)

		if ps > vs {
			// rep_p is ahead: help mirror it into rep_v.
			m.P.Flush(&ctx.FS, off)
			m.P.Fence(&ctx.FS)
			m.V.DWCAS(off, vv, vs, pv, ps)
			m.noteHelp(ctx)
			continue
		}
		if ps != vs {
			m.noteRetry(ctx)
			continue
		}
		if pv != expVal || ps != expVer {
			return false, pv, ps
		}
		ok, curV, curS := m.P.DWCAS(off, expVal, expVer, newVal, newVer)
		m.P.Flush(&ctx.FS, off)
		m.P.Fence(&ctx.FS)
		if ok {
			m.V.DWCAS(off, expVal, expVer, newVal, newVer)
			return true, expVal, expVer
		}
		// Help the winner into rep_v, then fail with the observed pair.
		m.V.DWCAS(off, vv, vs, curV, curS)
		return false, curV, curS
	}
}

// InitWideCell initializes an unpublished wide cell with (val, ver) on
// both replicas and flushes the persistent copy (fence via PublishFence).
func (m *Mem) InitWideCell(ctx *Ctx, off uint64, val, ver uint64) {
	m.P.StoreInit(off, val)
	m.P.StoreInit(off+1, ver)
	m.P.Flush(&ctx.FS, off)
	m.V.StoreInit(off, val)
	m.V.StoreInit(off+1, ver)
}
