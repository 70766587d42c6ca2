package memsim

import (
	"bytes"
	"encoding/binary"
	"math/bits"
)

// page is the buffer behind one PageSize page of a region — as much of
// it as was ever written. b covers bytes [0, len(b)) of the page; every
// byte past it is zero by definition, exactly as every byte of an absent
// page is: a region's page table ([]*page) has one slot per page of its
// DataLen, and a nil slot (or a nil table) is a page nothing was ever
// written to. Every reader follows the one rule "prefix, then implied
// zeros" (prefix, samePage, fnv64a.contents). Bytes of a buffer past the
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
// region references it: that region's owned bit is set, writes inside
// the buffer go to it in place and Release may hand a full-size one to
// the Pool. It is frozen once any capture has shared it — with a
// snapshot, a delta, the region's committed base, a layout or a restored
// space: nothing writes to it again, the next write to that page copies
// its prefix first, and it is never pooled. Snapshot and delta values
// reference frozen pages only.
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

// indices returns the set bits in ascending order, for diagnostics; the
// capture path walks the words in place, in the same order.
func (b bitmap) indices() []int {
	var out []int
	for w, word := range b {
		for ; word != 0; word &= word - 1 {
			out = append(out, w*64+bits.TrailingZeros64(word))
		}
	}
	return out
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

// 64-bit FNV-1a, the digest every content hash in this package uses. It
// is written out here rather than taken from hash/fnv for zeros: FNV-1a
// folds a byte c in as h = (h XOR c) * prime, so a zero byte is one
// multiply and a run of n zero bytes is h * prime^n mod 2^64. Zeros are
// hashed that way wherever they are — absent pages between present ones
// (contents) and the zero words inside a present page (bytes) — and the
// digest is bit-identical to hashing the bytes one at a time. Hashing
// therefore costs what a page holds, not what it could hold.
type fnv64a uint64

const (
	fnvOffset fnv64a = 14695981039346656037
	fnvPrime  fnv64a = 1099511628211
)

// zeroPow[n] is fnvPrime^n mod 2^64: the factor n zero bytes fold in as,
// for every run that fits a page. Written once by init, read-only after.
var zeroPow [PageSize + 1]fnv64a

func init() {
	zeroPow[0] = 1
	for n := 1; n < len(zeroPow); n++ {
		zeroPow[n] = zeroPow[n-1] * fnvPrime
	}
}

// bytes folds in p. It reads p in 8-byte words: a zero word only
// lengthens the pending zero run (whole 32-byte blocks of zeros at a time
// once inside one), and a run is folded in as a single multiply when the
// next non-zero byte — or the end of p — is reached. A non-zero word is
// folded byte by byte from the loaded word up to its last non-zero byte;
// its high zero bytes start the next run. Data without zeros pays the one
// multiply per byte FNV-1a asks for.
func (h fnv64a) bytes(p []byte) fnv64a {
	var run uint64
	for len(p) >= 8 {
		w := binary.LittleEndian.Uint64(p)
		p = p[8:]
		if w == 0 {
			run += 8
			for len(p) >= 32 && binary.LittleEndian.Uint64(p)|binary.LittleEndian.Uint64(p[8:])|
				binary.LittleEndian.Uint64(p[16:])|binary.LittleEndian.Uint64(p[24:]) == 0 {
				run += 32
				p = p[32:]
			}
			continue
		}
		if run != 0 {
			h = h.zeros(run)
		}
		run = 8
		for ; w != 0; w >>= 8 {
			h = (h ^ fnv64a(w&0xff)) * fnvPrime
			run--
		}
	}
	h = h.zeros(run)
	for _, c := range p {
		h = (h ^ fnv64a(c)) * fnvPrime
	}
	return h
}

func (h fnv64a) str(s string) fnv64a {
	for i := 0; i < len(s); i++ {
		h = (h ^ fnv64a(s[i])) * fnvPrime
	}
	return h
}

// u64 folds in v as eight little-endian bytes: byte by byte up to its
// last non-zero byte, the zero bytes above that as one run. Most of what
// it is handed — lengths, tags, sizes — is mostly zeros.
func (h fnv64a) u64(v uint64) fnv64a {
	run := 8
	for ; v != 0; v >>= 8 {
		h = (h ^ fnv64a(v&0xff)) * fnvPrime
		run--
	}
	return h * zeroPow[run]
}

// zeros folds in n zero bytes: h * prime^n, from the power table for a
// run that fits a page and by square-and-multiply beyond it.
func (h fnv64a) zeros(n uint64) fnv64a {
	if n < uint64(len(zeroPow)) {
		return h * zeroPow[n]
	}
	for p := fnvPrime; n != 0; n >>= 1 {
		if n&1 != 0 {
			h *= p
		}
		p *= p
	}
	return h
}

// contents folds in the dataLen logical bytes a page table describes.
// Present pages go through bytes, as far as their buffers reach; the
// zeros a short buffer implies join the run of absent pages after it, and
// each run costs one zeros call.
func (h fnv64a) contents(pages []*page, dataLen uint64) fnv64a {
	if pages == nil {
		return h.zeros(dataLen)
	}
	var run uint64
	for idx, p := range pages {
		start, end := pageExtent(idx, dataLen)
		if p == nil {
			run += end - start
			continue
		}
		b := p.prefix(end - start)
		h = h.zeros(run).bytes(b)
		run = end - start - uint64(len(b))
	}
	return h.zeros(run)
}

// contentHash digests the region's checkpointable state: layout metadata,
// data length and logical contents. How many pages happen to be
// materialised, and how long their buffers are, never reaches the digest
// — a region that was written with zeros, one that was never written and
// one rebuilt from an image hash alike when their bytes are alike.
// Snapshot.Fingerprint combines these per-region digests, so memoising
// them per region (invalidated by every write) makes repeated
// fingerprints of a mostly-clean space cheap.
func (r *Region) contentHash() uint64 { return r.hashWith(r.DataLen, r.pages) }

// hashWith is contentHash with the contents given apart from the layout
// metadata: a live region's own, while r describes only where it is.
func (r *Region) hashWith(dataLen uint64, pages []*page) uint64 {
	h := fnvOffset.u64(uint64(len(r.Name))).str(r.Name)
	h = h.u64(uint64(r.Half)).u64(uint64(r.Kind)).u64(r.Addr).u64(r.Size)
	return uint64(h.u64(dataLen).contents(pages, dataLen))
}
