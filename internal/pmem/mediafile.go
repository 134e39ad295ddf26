//go:build linux || darwin

package pmem

// File-backed media: the persistent device's media image can live in a
// MAP_SHARED mmap of a regular file instead of an anonymous Go slice. The
// semantics line up with the crash model exactly:
//
//   - Words reach the media only through a fence's line copy (commitLines,
//     after an explicit flush) or PersistRange, so the file always holds
//     precisely the fenced image.
//   - A SIGKILL — or any abrupt process death — loses the current (cache)
//     view, which is process-private, but every store already made into the
//     shared mapping stays visible to the next process that opens the file
//     (the OS page cache does not die with the process). The file after a
//     kill therefore equals the media after a simulated Crash with the
//     drop-all policy, with per-word persist granularity for a fence that
//     was mid-commit — the same atomicity the crash model grants.
//   - Unfenced writes never touch the file, so they can never survive: the
//     eviction adversary degenerates to "drop", the sound baseline.
//
// A fresh file is created zeroed at the device size; an existing file of
// the right size is adopted as-is, which is how a restarted process attaches
// to the previous incarnation's fenced state (engine.Config.Attach). Adopting
// copies nothing: the device's current view starts empty, as a machine's
// caches are after a power failure, and recovery restores into it exactly
// the words it will serve (Restore).

import (
	"fmt"
	"os"
	"syscall"
	"unsafe"
)

// mapMediaFile opens (creating if needed) path, sizes it to hold words
// 8-byte words, and maps it shared so stores into the returned slice land
// in the OS page cache immediately; adopted reports that the file already
// held an image. The mapping is page-aligned, so the 16-byte DWCAS alignment
// requirement holds.
func mapMediaFile(path string, words int) (media []uint64, adopted bool, err error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, false, fmt.Errorf("pmem: media file: %w", err)
	}
	defer f.Close()
	size := int64(words) * 8
	st, err := f.Stat()
	if err != nil {
		return nil, false, fmt.Errorf("pmem: media file: %w", err)
	}
	if st.Size() != size {
		if st.Size() != 0 {
			return nil, false, fmt.Errorf("pmem: media file %s holds %d bytes, want %d (different device config?)",
				path, st.Size(), size)
		}
		if err := f.Truncate(size); err != nil {
			return nil, false, fmt.Errorf("pmem: media file: %w", err)
		}
	}
	buf, err := syscall.Mmap(int(f.Fd()), 0, int(size),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return nil, false, fmt.Errorf("pmem: mmap %s: %w", path, err)
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(&buf[0])), words), st.Size() == size, nil
}

// Close releases a file-backed media mapping; the file keeps the image. A
// device whose media is process memory has nothing to release. Nothing may
// reach the media afterwards: a Fence, Crash or PersistedWord panics.
func (d *Device) Close() error {
	if !d.mapped {
		return nil
	}
	m := d.media
	d.media, d.mapped = nil, false
	return syscall.Munmap(unsafe.Slice((*byte)(unsafe.Pointer(&m[0])), len(m)*8))
}

// Restore copies [off, off+n) of the media image into the device's current
// (cache) view. It is the attach path's only copy: a device over an adopted
// media file starts with an empty view, and recovery restores the engine's
// fixed regions and every span its trace reaches — what it will serve —
// leaving every other word zero until something writes it. The previous
// process's unfenced writes are already absent from the file, so no crash
// policy applies. Like ReadRaw it is neither counted nor gated; the range
// must be quiesced.
func (d *Device) Restore(off uint64, n int) {
	if !d.track {
		panic("pmem: Restore on a device that is not tracking its media")
	}
	copy(d.words[off:off+uint64(n)], d.media[off:off+uint64(n)])
	if d.cold != nil {
		d.cold.hold(off, n)
	}
}
