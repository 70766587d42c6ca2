package memsim

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"slices"
)

// page is the buffer behind one PageSize page of a region. A region's
// page table ([]*page) has one slot per page of its DataLen; a nil slot
// (or a nil table) is a page nothing was ever written to, which reads as
// zeros. Bytes of a buffer past the region's DataLen are always zero, so
// a region's data length can grow without touching its pages.
//
// A buffer is in one of two states. It is owned while exactly one live
// region references it: that region's owned bit is set, writes go to it
// in place and Release may hand it to the Pool. It is frozen once any
// capture has shared it — with a snapshot, a delta, the region's
// committed base or a restored space: nothing writes to it again, the
// next write to that page copies it first, and it is never pooled.
// Snapshot and delta values reference frozen pages only.
type page [PageSize]byte

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

// pageOf returns a page buffer holding data, which must not be longer
// than a page. A full page is adopted as is (the caller guarantees it is
// never written again); a short one is copied so the tail stays zero.
func pageOf(data []byte) *page {
	if len(data) == PageSize {
		return (*page)(data)
	}
	p := new(page)
	copy(p[:], data)
	return p
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
// same logical contents. Absent and all-zero are the same contents.
func samePage(a, b *page, n uint64) bool {
	switch {
	case a == b:
		return true
	case a == nil:
		return isZero(b[:n])
	case b == nil:
		return isZero(a[:n])
	default:
		return bytes.Equal(a[:n], b[:n])
	}
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
// Present pages go through bytes; each run of absent pages costs one
// zeros call.
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
		h = h.zeros(run).bytes(p[:end-start])
		run = 0
	}
	return h.zeros(run)
}

// contentHash digests the region's checkpointable state: layout metadata,
// data length and logical contents. How many pages happen to be
// materialised never reaches the digest — a region that was written with
// zeros, one that was never written and one rebuilt from an image hash
// alike when their bytes are alike. Snapshot.Fingerprint combines these
// per-region digests, so memoising them per region (invalidated by every
// write) makes repeated fingerprints of a mostly-clean space cheap.
func (r *Region) contentHash() uint64 {
	h := fnvOffset.u64(uint64(len(r.Name))).str(r.Name)
	h = h.u64(uint64(r.Half)).u64(uint64(r.Kind)).u64(r.Addr).u64(r.Size)
	return uint64(h.u64(r.DataLen).contents(r.pages, r.DataLen))
}

// contentHashNow returns the live region's memoised content digest,
// refreshing it if a write invalidated the memo.
func (r *Region) contentHashNow() uint64 {
	if !r.hashOK {
		r.hash = r.contentHash()
		r.hashOK = true
	}
	return r.hash
}

// markDirty sets the dirty bits for the byte range [off, off+n).
func (r *Region) markDirty(off, n uint64) {
	if n == 0 {
		return
	}
	r.dirty = r.dirty.sized(pageCount(r.Size))
	first := int(off / PageSize)
	last := int((off + n - 1) / PageSize)
	for p := first; p <= last; p++ {
		r.dirty[p/64] |= 1 << (uint(p) % 64)
	}
	r.hashOK = false
}

// markAllDirty sets every page's dirty bit (newborn, resized, restored
// or newly lengthened regions).
func (r *Region) markAllDirty() {
	r.dirty = r.dirty.sized(pageCount(r.Size))
	for i := range r.dirty {
		r.dirty[i] = ^uint64(0)
	}
	// Mask the bits past the last page so popcounts stay exact.
	if extra := uint(pageCount(r.Size)) % 64; extra != 0 && len(r.dirty) > 0 {
		r.dirty[len(r.dirty)-1] = (1 << extra) - 1
	}
	r.hashOK = false
}

// view fills in *c with the region as a capture carries it: metadata,
// data length and a private copy of the page table. Every page the live
// region owned is frozen by the call — the view now shares it — so later
// writes copy the page instead of reaching the capture.
func (r *Region) view(c *Region) {
	clear(r.owned)
	c.Name, c.Half, c.Kind, c.Addr, c.Size = r.Name, r.Half, r.Kind, r.Addr, r.Size
	c.DataLen, c.pages = r.DataLen, slices.Clone(r.pages)
}

// rebase makes the region's current contents the committed generation:
// the page table a later delta dedups dirty pages against. All pages are
// frozen (the generation's snapshot or delta references them) and the
// dirty bits are cleared. A clean region keeps its base untouched.
func (r *Region) rebase() {
	if !r.dirty.any() {
		return
	}
	if len(r.base) != len(r.pages) {
		r.base = make([]*page, len(r.pages))
	}
	copy(r.base, r.pages)
	r.baseLen = r.DataLen
	clear(r.owned)
	clear(r.dirty)
}

// dropBase forgets the committed generation (used when the region is
// resized: page indices no longer line up with the committed contents,
// so the next delta must carry the region in full).
func (r *Region) dropBase() {
	r.base, r.baseLen = nil, 0
	r.markAllDirty()
}

// truncate cuts the contents to n bytes, n < DataLen.
func (a *AddressSpace) truncate(r *Region, n uint64) {
	keep := pageCount(n)
	if r.pages != nil {
		clear(r.pages[keep:])
		r.pages = r.pages[:keep]
		if cut := n % PageSize; cut != 0 && r.pages[keep-1] != nil {
			// Restore the zero tail on a private copy of the cut page.
			p := a.writable(r, keep-1)
			clear(p[cut:])
		}
	}
	r.DataLen = n
}

// writable returns page idx of the region as a buffer the region owns,
// materialising an absent page and copying a frozen one.
func (a *AddressSpace) writable(r *Region, idx int) *page {
	p := r.pages[idx]
	if p != nil && r.owned.test(idx) {
		return p
	}
	fresh := a.newPage()
	if p != nil {
		*fresh = *p
	}
	r.pages[idx] = fresh
	r.owned = r.owned.sized(pageCount(r.Size))
	r.owned[idx/64] |= 1 << (uint(idx) % 64)
	return fresh
}

// newPage returns a zeroed page buffer, recycled from the pool when one
// is attached.
func (a *AddressSpace) newPage() *page {
	if a.pool != nil {
		return a.pool.get()
	}
	return new(page)
}
