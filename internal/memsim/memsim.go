// Package memsim simulates the single-process address space that MANA's
// split-process technique manages.
//
// A real MANA process contains two programs: the upper half (the MPI
// application, its libc, heap and stack) and the lower half (a small
// bootstrap program that loads the MPI library and the network libraries).
// MANA's central trick is bookkeeping: it tags every memory region as
// belonging to one half so that, at checkpoint time, only upper-half
// regions are written to the image and the entire lower half is discarded.
//
// This package reproduces that bookkeeping. An AddressSpace holds Regions,
// each tagged with a Half and a Kind; it supports Mmap/Munmap/Sbrk with the
// same hazards the paper describes (sbrk after restart would grow the wrong
// program's data segment unless interposed, §2.1); and it produces
// Snapshots containing exactly the regions a checkpoint image must carry.
//
// Memory and checkpoint cost are proportional to the bytes a run writes
// and to what is particular to one space, not to address-space size.
// Region contents live in a sparse page store (pages.go): a region
// records its logical data length and holds a buffer only for pages that
// were written, only as long as the prefix of the page that was written
// (64 B to 4 KiB); an absent page, and the tail past a short buffer, read
// as zeros and cost nothing to keep, capture, compare or hash. What a
// region is — name, half, kind, address, size — is an immutable Region
// that spaces with the same map share (Layout); a live region (live.go)
// is a pointer to it plus the contents and dirtiness this space added.
// Captures share pages instead of copying them — a page is owned by its
// live region until a snapshot, delta or restore references it, and
// frozen (copied on the next write) from then on. Every write path also
// marks the region's dirty pages, so CommitUpperHalfDelta (delta.go)
// emits only those plus per-page content hashes. Digests cover logical
// contents only, never which pages happen to be materialised or how long
// their buffers are.
package memsim

import (
	"fmt"
	"slices"

	"mana/internal/fnv1a"
)

// Half identifies which program of the split process owns a region.
type Half int

const (
	// UpperHalf is the MPI application: code, data, heap, stack,
	// environment, and its own copies of libc and (an uninitialised) MPI
	// library as link-time dependencies.
	UpperHalf Half = iota
	// LowerHalf is the ephemeral program: the bootstrap loader, the active
	// MPI library, network/driver libraries and any memory they map
	// (pinned buffers, driver shared memory).
	LowerHalf
)

// String returns the conventional name of the half.
func (h Half) String() string {
	switch h {
	case UpperHalf:
		return "upper"
	case LowerHalf:
		return "lower"
	default:
		return "invalid"
	}
}

// Kind classifies a region by its role. Kinds matter for the memory
// overhead accounting of §3.2.2 (duplicated text segments, driver shared
// memory growth) and for deciding how a region is restored.
type Kind int

const (
	KindText Kind = iota // program or library code
	KindData             // initialised/uninitialised data segments
	KindHeap             // sbrk- or mmap-grown heap
	KindStack
	KindSharedMem  // System V / driver shared memory
	KindPinned     // NIC-registered (pinned) buffers
	KindDriver     // memory-mapped device regions
	KindAnonymous  // other anonymous mappings
	KindEnviron    // environment and auxiliary vectors
	KindThreadLoc  // thread-local storage blocks
	KindCheckpoint // scratch regions used by the checkpoint helper itself
)

var kindNames = map[Kind]string{
	KindText:       "text",
	KindData:       "data",
	KindHeap:       "heap",
	KindStack:      "stack",
	KindSharedMem:  "shm",
	KindPinned:     "pinned",
	KindDriver:     "driver",
	KindAnonymous:  "anon",
	KindEnviron:    "environ",
	KindThreadLoc:  "tls",
	KindCheckpoint: "ckpt-scratch",
}

// String returns a short name for the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return "unknown"
}

// ParseKind resolves a kind's short name ("text", "heap", ...) back to
// the Kind, for configuration surfaces keyed by region class.
func ParseKind(name string) (Kind, bool) {
	for k, s := range kindNames {
		if s == name {
			return k, true
		}
	}
	return 0, false
}

// KindNames returns every kind's short name in Kind order, for error
// messages listing the valid region classes.
func KindNames() []string {
	names := make([]string, 0, len(kindNames))
	for k := KindText; int(k) < len(kindNames); k++ {
		names = append(names, kindNames[k])
	}
	return names
}

// PageSize is the dirty-tracking granularity: the smallest unit of memory
// an incremental checkpoint copies, hashes and writes. It matches the
// x86-64 base page size the real MANA's mem-region scan operates on.
const PageSize = 4096

// Region is one contiguous mapping in the simulated address space, as a
// capture, Regions, RegionsOf and Lookup hand it out, and as live spaces
// share it to describe a mapping (liveRegion.desc). It is immutable once
// handed out.
type Region struct {
	// Name is a human-readable label, e.g. "libmpich.so.text" or
	// "[heap]".
	Name string
	// Half records which program of the split process owns the region.
	Half Half
	// Kind records the region's role.
	Kind Kind
	// Addr is the simulated start address.
	Addr uint64
	// Size is the region length in bytes.
	Size uint64
	// DataLen is the logical length of the region's contents: zero for a
	// region modelled only for size accounting (library text), Size once
	// anything has been written. It is checkpointable state — Equal and
	// Fingerprint distinguish a contentless region from one holding
	// DataLen zero bytes — while the pages behind it are not.
	DataLen uint64

	// pages is the sparse page table behind DataLen (see page). Nil, or
	// one slot per page of DataLen. Every page in it is frozen.
	pages []*page
}

// End returns the first address past the region.
func (r *Region) End() uint64 { return r.Addr + r.Size }

// Layout constants for the simulated address space. The exact values are
// arbitrary; they only need to keep the halves disjoint, mirroring how the
// real MANA reserves distinct address ranges for the lower half.
const (
	upperBase     = 0x0000_4000_0000_0000
	lowerBase     = 0x0000_7000_0000_0000
	mmapAlignment = 4096
)

// AddressSpace is the simulated process memory map.
//
// It follows the single-owner rule vtime.Clock documents: an address
// space belongs to one rank and is touched only by the goroutine
// currently driving that rank — the scheduler goroutine in serial mode,
// the owning island's worker inside a parallel window, the coordinator
// between windows (capture, restore, fingerprint). It therefore carries
// no lock, and cmd/isolint rejects a sync or atomic field on it, on
// Region or on its live regions. What ranks do share is the Pool behind
// their page buffers, which is locked, and Region descriptors and frozen
// pages, which are immutable.
type AddressSpace struct {
	// regions holds each half's regions in ascending address order.
	// Addresses are handed out monotonically per half, so a new mapping
	// appends and every capture path iterates in place: no map, and so no
	// map order, ever stands between the space and an image.
	regions     [2][]liveRegion
	nextUpper   uint64
	nextLower   uint64
	brk         uint64 // simulated program break (upper-half data segment end)
	brkBase     uint64
	sbrkInter   bool // MANA's sbrk interposition active
	postRestart bool // true once the space has been rebuilt from an image
	// gen counts committed snapshot generations (CommitUpperHalf and
	// CommitUpperHalfDelta); deltas are always relative to generation gen.
	gen uint64
	// pool optionally recycles owned page buffers across address-space
	// lifetimes (see Pool); nil means plain allocation.
	pool *Pool
	// lastWrite is the live region the previous Write resolved its address
	// to, tried before the search: a workload step writes the same region
	// over and over. Nil after anything that adds regions to the space or
	// takes them out (it points into regions).
	lastWrite *liveRegion
}

// NewAddressSpace returns an empty address space with MANA's sbrk
// interposition enabled (the default when running under MANA).
func NewAddressSpace() *AddressSpace {
	return NewAddressSpacePooled(nil)
}

// NewAddressSpacePooled returns an empty address space whose page
// buffers are drawn from (and returned to, via Release) the given pool.
// A nil pool is equivalent to NewAddressSpace.
func NewAddressSpacePooled(pool *Pool) *AddressSpace {
	return &AddressSpace{
		nextUpper: upperBase,
		nextLower: lowerBase,
		brkBase:   upperBase,
		brk:       upperBase,
		sbrkInter: true,
		pool:      pool,
	}
}

// Release returns every page buffer a live region still owns to the
// attached pool and empties the address space. Frozen pages are never
// recycled — committed checkpoint images reference them and must stay
// immutable — and buffers shorter than a page are left to the allocator.
// The space must not be used after Release; callers that
// captured Regions()/Lookup() copies keep them (those are deep copies).
// Without an attached pool Release only empties the space.
func (a *AddressSpace) Release() {
	a.lastWrite = nil
	for half := range a.regions {
		if a.pool != nil {
			for _, r := range a.regions[half] {
				m := r.mut
				if m == nil {
					continue
				}
				for i, p := range m.pages {
					if p != nil && len(p.b) == PageSize && m.owned.test(i) {
						a.pool.put(p)
					}
				}
				m.pages = nil
			}
		}
		a.regions[half] = nil
	}
}

// SetSbrkInterposition enables or disables MANA's interposition on sbrk.
// Disabling it exposes the §2.1 hazard, which the tests exercise.
func (a *AddressSpace) SetSbrkInterposition(on bool) {
	a.sbrkInter = on
}

// SbrkInterposed reports whether sbrk interposition is enabled.
func (a *AddressSpace) SbrkInterposed() bool {
	return a.sbrkInter
}

// MarkPostRestart records that the address space has been reconstructed
// from a checkpoint image, which changes sbrk behaviour (the kernel's brk
// now refers to the bootstrap program).
func (a *AddressSpace) MarkPostRestart() {
	a.postRestart = true
}

// PostRestart reports whether the space was rebuilt from an image.
func (a *AddressSpace) PostRestart() bool {
	return a.postRestart
}

func align(n uint64) uint64 {
	if rem := n % mmapAlignment; rem != 0 {
		n += mmapAlignment - rem
	}
	return n
}

// find returns the live region starting at addr, or nil, and its index
// in its half's list. The halves occupy disjoint address ranges, so the
// address picks the list; within it regions are sorted.
func (a *AddressSpace) find(addr uint64) (*liveRegion, Half, int) {
	half := UpperHalf
	if addr >= lowerBase {
		half = LowerHalf
	}
	list := a.regions[half]
	lo, hi := 0, len(list)
	for lo < hi {
		if mid := (lo + hi) / 2; list[mid].desc.Addr < addr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(list) && list[lo].desc.Addr == addr {
		return &list[lo], half, lo
	}
	return nil, half, -1
}

// Mmap creates a new region in the given half and returns its
// descriptor as mapped, which the caller must not modify. Size is rounded
// up to the page size. The region has no contents (DataLen 0) until it is
// first written.
func (a *AddressSpace) Mmap(name string, half Half, kind Kind, size uint64) *Region {
	return a.mmap(name, half, kind, size, 0).desc
}

// mmap is Mmap for a region that starts with dataLen zero bytes of
// contents, returning the live region.
func (a *AddressSpace) mmap(name string, half Half, kind Kind, size, dataLen uint64) *liveRegion {
	size = align(size)
	var addr uint64
	switch half {
	case UpperHalf:
		addr = a.nextUpper
		a.nextUpper += size + mmapAlignment
	case LowerHalf:
		addr = a.nextLower
		a.nextLower += size + mmapAlignment
	default:
		panic(fmt.Sprintf("memsim: invalid half %d", half))
	}
	// A newborn region is entirely dirty: the next incremental snapshot
	// must carry it whole (there is no committed base to delta against).
	a.regions[half] = append(a.regions[half], liveRegion{
		desc:     &Region{Name: name, Half: half, Kind: kind, Addr: addr, Size: size, DataLen: dataLen},
		allDirty: true,
	})
	a.lastWrite = nil
	return &a.regions[half][len(a.regions[half])-1]
}

// MmapWithData creates a region initialised with the given contents.
func (a *AddressSpace) MmapWithData(name string, half Half, kind Kind, data []byte) *Region {
	r := a.mmap(name, half, kind, uint64(len(data)), 0)
	if len(data) > 0 {
		m := r.own()
		m.dataLen = uint64(len(data))
		m.pages = make([]*page, pageCount(m.dataLen))
		a.store(r, 0, data)
	}
	return r.desc
}

// MmapZero creates a region whose contents are n zero bytes. It is
// MmapWithData(make([]byte, n)) without the bytes: no page is
// materialised until one is written, while the data length — which
// fingerprints and images record — is n from the start.
func (a *AddressSpace) MmapZero(name string, half Half, kind Kind, n uint64) *Region {
	return a.mmap(name, half, kind, n, n).desc
}

// Munmap removes the region starting at addr. It reports whether a region
// was found.
func (a *AddressSpace) Munmap(addr uint64) bool {
	r, half, i := a.find(addr)
	if r == nil {
		return false
	}
	a.regions[half] = slices.Delete(a.regions[half], i, i+1)
	a.lastWrite = nil
	return true
}

// UnmapHalf removes every region belonging to the given half and returns
// the number of bytes released. MANA uses this to discard the lower half
// before restoring a checkpoint image, and to model the "ephemeral" MPI
// library.
func (a *AddressSpace) UnmapHalf(half Half) uint64 {
	released := a.BytesOf(half)
	a.regions[half] = nil
	a.lastWrite = nil
	return released
}

// SbrkResult describes the outcome of a heap-growth request.
type SbrkResult struct {
	// Region describes the region that satisfied the request (either the
	// grown data segment or a fresh mmap) as it was mapped; read-only.
	Region *Region
	// UsedMmap reports whether the request was redirected to mmap by
	// MANA's interposition.
	UsedMmap bool
	// CorruptedLowerHalf reports that, without interposition and after
	// restart, the kernel grew the lower-half program's data segment —
	// the hazard §2.1 describes.
	CorruptedLowerHalf bool
}

// Sbrk grows the heap by delta bytes and reports how the request was
// satisfied. After restart the kernel would extend the *lower-half* data
// segment on sbrk, because that is the program it originally loaded,
// which is why MANA interposes on sbrk in the upper-half libc and uses
// mmap instead (§2.1).
func (a *AddressSpace) Sbrk(delta uint64) SbrkResult {
	if a.sbrkInter {
		r := a.Mmap("[heap-mmap]", UpperHalf, KindHeap, delta)
		return SbrkResult{Region: r, UsedMmap: true}
	}
	if a.postRestart {
		// The kernel's brk refers to the bootstrap (lower-half) program.
		r := a.Mmap("[lower-brk-growth]", LowerHalf, KindData, delta)
		return SbrkResult{Region: r, CorruptedLowerHalf: true}
	}
	// Pre-checkpoint, the brk belongs to the original upper-half program.
	r := a.Mmap("[heap]", UpperHalf, KindHeap, delta)
	a.brk += align(delta)
	return SbrkResult{Region: r}
}

// SbrkShrink releases up to delta bytes from the top of the upper-half
// heap (most recently allocated heap regions first, mirroring how a real
// brk retreats) and returns the number of bytes actually released. A
// region shrunk partially keeps its address but loses its tail; its
// dirtiness and committed base are reset (resize) so the next incremental
// snapshot carries the resized region in full.
func (a *AddressSpace) SbrkShrink(delta uint64) uint64 {
	upper := a.regions[UpperHalf]
	a.lastWrite = nil
	var released uint64
	for i := len(upper) - 1; i >= 0 && delta > 0; i-- {
		r := &upper[i]
		if r.desc.Kind != KindHeap {
			continue
		}
		if size := r.desc.Size; delta >= size {
			delta -= size
			released += size
			upper = slices.Delete(upper, i, i+1)
			continue
		}
		a.resize(r, r.desc.Size-delta)
		released += delta
		delta = 0
	}
	a.regions[UpperHalf] = upper
	if a.brk > a.brkBase+released {
		a.brk -= released
	} else if a.brk > a.brkBase {
		a.brk = a.brkBase
	}
	return released
}

// Regions returns a snapshot slice of all regions sorted by address.
func (a *AddressSpace) Regions() []Region {
	// The upper half's address range lies below the lower half's.
	out := make([]Region, 0, len(a.regions[UpperHalf])+len(a.regions[LowerHalf]))
	for _, list := range a.regions {
		for i := range list {
			out = append(out, list[i].clone())
		}
	}
	return out
}

// RegionsOf returns the regions belonging to one half, sorted by address.
func (a *AddressSpace) RegionsOf(half Half) []Region {
	out := make([]Region, 0, len(a.regions[half]))
	for i := range a.regions[half] {
		out = append(out, a.regions[half][i].clone())
	}
	return out
}

// BytesOf returns the total size in bytes of all regions in one half.
func (a *AddressSpace) BytesOf(half Half) uint64 {
	var total uint64
	for _, r := range a.regions[half] {
		total += r.desc.Size
	}
	return total
}

// BytesOfKind returns the total size of regions of a given half and kind.
func (a *AddressSpace) BytesOfKind(half Half, kind Kind) uint64 {
	var total uint64
	for _, r := range a.regions[half] {
		if r.desc.Kind == kind {
			total += r.desc.Size
		}
	}
	return total
}

// Lookup returns the region starting at addr, if any.
func (a *AddressSpace) Lookup(addr uint64) (Region, bool) {
	r, _, _ := a.find(addr)
	if r == nil {
		return Region{}, false
	}
	return r.clone(), true
}

// Write stores data into the region starting at addr at the given offset.
// It returns an error if the region does not exist or the write would
// overflow it. Only the pages the write touches are materialised, and
// only as far as the write reaches into them.
//
// Every write to a live region takes one path: prepareWrite (the region,
// its contents, data length and page table), then span for each page
// the bytes reach (the page's own buffer, long enough, and its dirty
// bit). WriteSpan is the same path for one page, filled in place.
func (a *AddressSpace) Write(addr uint64, offset uint64, data []byte) error {
	r, err := a.prepareWrite(addr, offset, uint64(len(data)))
	if err != nil {
		return err
	}
	a.store(r, offset, data)
	return nil
}

// WriteSpan is Write for a caller that fills the bytes in place: it
// returns the n bytes at offset in the region starting at addr, which
// must lie within one page, as a buffer the region owns. The caller
// stores into it what Write's data would have held, before its next call
// on the space; a byte it leaves alone keeps what the region held. The
// region comes out as Write of those bytes would leave it — contents,
// data length, dirty page, buffer length — and the call allocates
// nothing but, when the page needs one, its new buffer.
func (a *AddressSpace) WriteSpan(addr uint64, offset, n uint64) ([]byte, error) {
	if n == 0 || offset/PageSize != (offset+n-1)/PageSize {
		return nil, fmt.Errorf("memsim: span of %d bytes at offset %d is not within one page", n, offset)
	}
	r, err := a.prepareWrite(addr, offset, n)
	if err != nil {
		return nil, err
	}
	return a.span(r, offset, int(n)), nil
}

// prepareWrite readies the region starting at addr for a write of n
// bytes at offset: it resolves the region (the last one written first),
// checks the bytes fit, gives the region contents of its own, their full
// data length on the first write and a page table covering them.
func (a *AddressSpace) prepareWrite(addr, offset, n uint64) (*liveRegion, error) {
	r := a.lastWrite
	if r == nil || r.desc.Addr != addr {
		if r, _, _ = a.find(addr); r == nil {
			return nil, fmt.Errorf("memsim: write to unmapped region 0x%x", addr)
		}
		a.lastWrite = r
	}
	size := r.desc.Size
	if offset > size || n > size-offset {
		return nil, fmt.Errorf("memsim: write of %d bytes at offset %d overflows region %q (size %d)",
			n, offset, r.desc.Name, size)
	}
	m := r.mut
	if m == nil {
		m = r.own()
	}
	if m.dataLen < size {
		// The first write gives the region contents of its full size. The
		// data length is part of the checkpointable state, so the whole
		// region must reach the next incremental image.
		m.dataLen = size
		r.markAllDirty()
	}
	if want := pageCount(size); n > 0 && len(m.pages) < want {
		m.pages = append(m.pages, make([]*page, want-len(m.pages))...)
	}
	return r, nil
}

// store copies data into the region's pages at offset, a span per page.
func (a *AddressSpace) store(r *liveRegion, offset uint64, data []byte) {
	for len(data) > 0 {
		n := min(PageSize-int(offset%PageSize), len(data))
		copy(a.span(r, offset, n), data[:n])
		data = data[n:]
		offset += uint64(n)
	}
}

// span returns bytes [offset, offset+n) of the region, which lie in one
// page, as a buffer the region owns (writable) and marks them written
// (markDirty).
func (a *AddressSpace) span(r *liveRegion, offset uint64, n int) []byte {
	at := int(offset % PageSize)
	b := a.writable(r.mut, int(offset/PageSize), at+n)[at : at+n]
	r.markDirty(offset, uint64(n))
	return b
}

// Read copies length bytes from the region starting at addr at offset.
func (a *AddressSpace) Read(addr uint64, offset uint64, length uint64) ([]byte, error) {
	r, _, _ := a.find(addr)
	if r == nil {
		return nil, fmt.Errorf("memsim: read from unmapped region 0x%x", addr)
	}
	if size := r.desc.Size; offset > size || length > size-offset {
		return nil, fmt.Errorf("memsim: read of %d bytes at offset %d overflows region %q (size %d)",
			length, offset, r.desc.Name, size)
	}
	// Absent pages, the tail past a short buffer and everything past the
	// data length read as zeros — which out already holds.
	out := make([]byte, length)
	pages := r.pages()
	for done := uint64(0); done < length; {
		at := offset + done
		n := min(PageSize-at%PageSize, length-done)
		if b := pageAt(pages, int(at/PageSize)).buf(); at%PageSize < uint64(len(b)) {
			copy(out[done:done+n], b[at%PageSize:])
		}
		done += n
	}
	return out, nil
}

// Snapshot is the set of regions a checkpoint image carries: exactly the
// upper-half regions (the lower half is discarded).
type Snapshot struct {
	Regions []Region
	// Brk is the saved program break so heap state can be restored.
	Brk uint64
	// RegionHashes optionally memoises the per-region content digests
	// (parallel to Regions) captured from the address space's hash cache.
	// Fingerprint uses them when present and recomputes when absent; the
	// digest of a snapshot is identical either way. Equal ignores them.
	RegionHashes []uint64
}

// capture builds a full snapshot by sharing, not copying: each
// region contributes a copy of its page table, and the pages themselves
// are frozen so the live space copies one on its next write to it. When
// commit is set the captured contents also become the base generation
// every later delta is relative to, and the dirty bitmaps are cleared.
func (a *AddressSpace) capture(commit bool) Snapshot {
	upper := a.regions[UpperHalf]
	snap := Snapshot{
		Brk:          a.brk,
		Regions:      make([]Region, len(upper)),
		RegionHashes: make([]uint64, len(upper)),
	}
	for i := range upper {
		r := &upper[i]
		r.view(&snap.Regions[i])
		snap.RegionHashes[i] = r.contentHashNow()
		if commit {
			r.rebase()
		}
	}
	if commit {
		a.gen++
	}
	return snap
}

// SnapshotUpperHalf captures all upper-half regions without committing:
// the dirty bitmaps and the committed base are left untouched, so
// observing the space never perturbs incremental checkpointing.
func (a *AddressSpace) SnapshotUpperHalf() Snapshot {
	return a.capture(false)
}

// CommitUpperHalf captures all upper-half regions and records the result
// as the new committed generation: dirty bitmaps are cleared and the next
// delta (CommitUpperHalfDelta) is relative to this snapshot. This is what
// MANA's checkpoint helper writes to a full image file.
func (a *AddressSpace) CommitUpperHalf() Snapshot {
	return a.capture(true)
}

// Fingerprint returns SnapshotUpperHalf().Fingerprint() without building
// the snapshot: the live regions are hashed in place (per-region memo,
// absent pages skipped), nothing is copied and no page is frozen.
func (a *AddressSpace) Fingerprint() uint64 {
	upper := a.regions[UpperHalf]
	h := fnv1a.Offset.U64(a.brk).U64(uint64(len(upper)))
	for i := range upper {
		h = h.U64(upper[i].contentHashNow())
	}
	return uint64(h)
}

// Generation returns the number of committed snapshots (full or delta)
// taken of this space. Zero means no base exists yet, so an incremental
// capture must fall back to a full one.
func (a *AddressSpace) Generation() uint64 {
	return a.gen
}

// DirtyPages returns the dirty page indices of the region at addr, in
// ascending order, and whether the region exists. Tests and diagnostics
// use it to observe the bitmap without capturing.
func (a *AddressSpace) DirtyPages(addr uint64) ([]int, bool) {
	r, _, _ := a.find(addr)
	if r == nil {
		return nil, false
	}
	return r.dirtyPages(), true
}

// TotalBytes returns the number of bytes of memory captured by the
// snapshot; this is the per-rank checkpoint image payload size.
func (s Snapshot) TotalBytes() uint64 {
	var total uint64
	for i := range s.Regions {
		total += s.Regions[i].Size
	}
	return total
}

// Fingerprint returns a deterministic 64-bit digest of the snapshot:
// region layout, tags and contents all contribute. Two snapshots are
// Equal iff their fingerprints match (up to hash collision), so restart
// determinism checks and simulation reports can compare images cheaply
// without carrying full region contents around. It combines per-region
// content digests, reusing the memoised RegionHashes when the capture
// filled them in — the digest is identical whether or not the memo is
// present, because the per-region function is the same.
func (s Snapshot) Fingerprint() uint64 {
	h := fnv1a.Offset.U64(s.Brk).U64(uint64(len(s.Regions)))
	memoised := len(s.RegionHashes) == len(s.Regions)
	for i := range s.Regions {
		if memoised {
			h = h.U64(s.RegionHashes[i])
		} else {
			h = h.U64(s.Regions[i].contentHash())
		}
	}
	return uint64(h)
}

// RestoreUpperHalf rebuilds the upper half of the address space from a
// snapshot. Existing upper-half regions are discarded first (the restore
// happens into the bootstrap program's address space, whose upper half is
// empty apart from the restore stub). Lower-half regions are untouched:
// they belong to the freshly initialised MPI library. The snapshot's
// regions must be in ascending address order, as every capture and
// ApplyDelta produces them.
func (a *AddressSpace) RestoreUpperHalf(s Snapshot) {
	// A restored region shares the image's contents — its descriptor is a
	// copy of the image's Region, page table included, and a write copies
	// table and page first, so the image stays immutable — and starts
	// entirely dirty with no committed base: restart begins a new
	// incremental chain. Two allocations, whatever the region count. (The
	// descriptors are copies because CorruptSnapshot edits an image's
	// Region values in place.)
	descs := slices.Clone(s.Regions)
	upper := make([]liveRegion, len(descs))
	memoised := len(s.RegionHashes) == len(descs)
	maxEnd := uint64(upperBase)
	for i := range descs {
		d := &descs[i]
		if i > 0 && d.Addr <= descs[i-1].Addr {
			panic(fmt.Sprintf("memsim: snapshot region %q at 0x%x is out of address order", d.Name, d.Addr))
		}
		upper[i] = liveRegion{desc: d, allDirty: true}
		if memoised {
			upper[i].hash, upper[i].hashOK = s.RegionHashes[i], true
		}
		maxEnd = max(maxEnd, d.End())
	}
	a.regions[UpperHalf] = upper
	a.lastWrite = nil
	if a.nextUpper < maxEnd+mmapAlignment {
		a.nextUpper = maxEnd + mmapAlignment
	}
	a.brk = s.Brk
	a.postRestart = true
	// The restored space has no committed generation: the first capture
	// after restart is necessarily a full image.
	a.gen = 0
}

// Equal reports whether two snapshots describe identical upper-half memory
// (same regions, same data lengths, same logical contents — an absent page
// equals a page of zeros). Used by tests to prove checkpoint/restore
// round-trips are lossless.
func (s Snapshot) Equal(o Snapshot) bool {
	if len(s.Regions) != len(o.Regions) || s.Brk != o.Brk {
		return false
	}
	for i := range s.Regions {
		a, b := &s.Regions[i], &o.Regions[i]
		if a.Addr != b.Addr || a.Size != b.Size || a.Half != b.Half || a.Kind != b.Kind || a.Name != b.Name {
			return false
		}
		if a.DataLen != b.DataLen {
			return false
		}
		for idx := 0; idx < pageCount(a.DataLen); idx++ {
			start, end := pageExtent(idx, a.DataLen)
			if !samePage(pageAt(a.pages, idx), pageAt(b.pages, idx), end-start) {
				return false
			}
		}
	}
	return true
}
