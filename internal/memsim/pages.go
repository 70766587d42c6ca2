package memsim

import (
	"bytes"
	"encoding/binary"
	"math/bits"

	"mana/internal/fnv1a"
)

// page is the buffer behind one PageSize page of a region — as much of
// it as was ever written. b covers bytes [0, len(b)) of the page; every
// byte past it is zero by definition, exactly as every byte of an absent
// page is: a region's page table ([]*page) has one slot per page of its
// DataLen, and a nil slot (or a nil table) is a page nothing was ever
// written to. Every reader follows the one rule "prefix, then implied
// zeros" (prefix, samePage, hashContents). Bytes of a buffer past the
// region's DataLen are always zero, so a region's data length can grow
// without touching its pages.
//
// A buffer the live space allocates is as long as the written extent
// rounded up to a power of two, 64 B to PageSize (bufClass) — the
// allocator's own size classes. A write past it replaces the page with a
// longer one holding the old prefix; the page behind a slot is never
// lengthened in place, so whoever else holds it keeps what they had. A
// buffer adopted from a delta (ApplyDelta) may have any length up to
// PageSize.
//
// A page is in one of two states. It is owned while exactly one live
// region references it: that region's owned bit is set and writes inside
// the buffer go to it in place. It is frozen once any capture has shared
// it — with a snapshot, a delta, the region's committed base, a layout
// or a restored space: nothing writes to it again and the next write to
// that page copies its prefix first. Snapshot and delta values reference
// frozen pages only.
type page struct {
	b []byte
}

// minPageBuf is the shortest buffer a written page gets.
const minPageBuf = 64

// bufClass returns the buffer length for a page written up to byte n,
// 0 < n <= PageSize: n rounded up to a power of two, at least minPageBuf.
func bufClass(n int) int {
	if n <= minPageBuf {
		return minPageBuf
	}
	return 1 << bits.Len(uint(n-1))
}

// newPage returns an owned page with a zeroed buffer of the given length.
func newPage(size int) *page { return &page{b: make([]byte, size)} }

// buf returns the page's buffer, nil for an absent (nil) page.
func (p *page) buf() []byte {
	if p == nil {
		return nil
	}
	return p.b
}

// prefix returns the materialised part of the page's first n bytes; the
// rest of them, and all of them for an absent page, are zeros.
func (p *page) prefix(n uint64) []byte {
	if b := p.buf(); uint64(len(b)) > n {
		return b[:n]
	}
	return p.buf()
}

// pageCount returns the number of PageSize pages covering n bytes.
func pageCount(n uint64) int { return int((n + PageSize - 1) / PageSize) }

// pageExtent returns the [start, end) byte range of page idx clipped to
// dataLen; start >= end means the page lies past the region's contents.
func pageExtent(idx int, dataLen uint64) (uint64, uint64) {
	start := uint64(idx) * PageSize
	end := start + PageSize
	if end > dataLen {
		end = dataLen
	}
	return start, end
}

// pageAt returns slot idx of a page table, nil — absent — when the table
// is nil or shorter.
func pageAt(pages []*page, idx int) *page {
	if idx >= len(pages) {
		return nil
	}
	return pages[idx]
}

// isZero reports whether b holds only zero bytes, a word at a time.
func isZero(b []byte) bool {
	for ; len(b) >= 8; b = b[8:] {
		if binary.LittleEndian.Uint64(b) != 0 {
			return false
		}
	}
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// samePage reports whether the first n bytes of two page slots hold the
// same logical contents: the shorter prefix equals the head of the longer
// one and what the longer one has beyond it is zeros. Absent, all-zero
// and short-with-a-zero-tail are the same contents.
func samePage(a, b *page, n uint64) bool {
	if a == b {
		return true
	}
	short, long := a.prefix(n), b.prefix(n)
	if len(short) > len(long) {
		short, long = long, short
	}
	return bytes.Equal(short, long[:len(short)]) && isZero(long[len(short):])
}

// bitmap is a page-indexed bit set. The nil bitmap is empty.
type bitmap []uint64

func (b bitmap) test(i int) bool { return i/64 < len(b) && b[i/64]&(1<<(uint(i)%64)) != 0 }

func (b bitmap) any() bool {
	for _, w := range b {
		if w != 0 {
			return true
		}
	}
	return false
}

// countBelow returns how many bits with an index below n are set.
func (b bitmap) countBelow(n int) int {
	total := 0
	for w, word := range b {
		if rem := n - w*64; rem < 64 {
			if rem > 0 {
				total += bits.OnesCount64(word & (1<<uint(rem) - 1))
			}
			break
		}
		total += bits.OnesCount64(word)
	}
	return total
}

// bitmapWords returns the length of a bitmap covering n pages.
func bitmapWords(n int) int { return (n + 63) / 64 }

// sized returns the bitmap resized to cover n pages, keeping the bits
// that still fit.
func (b bitmap) sized(n int) bitmap {
	if words := bitmapWords(n); len(b) != words {
		grown := make(bitmap, words)
		copy(grown, b)
		return grown
	}
	return b
}

// hashContents folds in logical bytes [from, dataLen) of a page table,
// through the shared FNV-1a kernel, which folds a zero run of any length
// as one multiply. Present pages go through Bytes, as far as their
// buffers reach; the zeros a short buffer implies join the run of absent
// pages after it, and each run costs one Zeros call. Hashing therefore
// costs what a page holds, not what it could hold.
func hashContents(h fnv1a.Hash, pages []*page, from, dataLen uint64) fnv1a.Hash {
	var run uint64
	for idx := int(from / PageSize); idx < len(pages); idx++ {
		start, end := pageExtent(idx, dataLen)
		start, base := max(start, from), uint64(idx)*PageSize
		b := pages[idx].prefix(end - base)
		b = b[min(uint64(len(b)), start-base):]
		if len(b) > 0 {
			h, run = h.Zeros(run).Bytes(b), 0
		}
		run += end - start - uint64(len(b))
	}
	// Bytes past the table — all of them, for a nil table — are zeros.
	return h.Zeros(run + dataLen - min(dataLen, max(from, uint64(len(pages))*PageSize)))
}

// contentHash digests the region's checkpointable state: layout metadata,
// data length and logical contents. How many pages happen to be
// materialised, and how long their buffers are, never reaches the digest
// — a region that was written with zeros, one that was never written and
// one rebuilt from an image hash alike when their bytes are alike.
// Snapshot.Fingerprint combines these per-region digests, so memoising
// them per region (invalidated by every write) makes repeated
// fingerprints of a mostly-clean space cheap.
func (r *Region) contentHash() uint64 { return r.hashWith(r.DataLen, r.pages, nil) }

// hashWith is contentHash with the contents given apart from the layout
// metadata: a live region's own, while r describes only where it is. The
// first len(over) bytes are over's instead of the page table's.
func (r *Region) hashWith(dataLen uint64, pages []*page, over []byte) uint64 {
	h := fnv1a.Offset.U64(uint64(len(r.Name))).Str(r.Name)
	h = h.U64(uint64(r.Half)).U64(uint64(r.Kind)).U64(r.Addr).U64(r.Size)
	return uint64(hashContents(h.U64(dataLen).Bytes(over), pages, uint64(len(over)), dataLen))
}
