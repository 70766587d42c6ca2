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
// each tagged with a Half and a Kind; it supports Mmap and Sbrk with the
// same hazards the paper describes (sbrk after restart would grow the wrong
// program's data segment unless interposed, §2.1); and it produces
// Snapshots containing exactly the regions a checkpoint image must carry.
//
// An address space only grows. A mapped region keeps its name, tags,
// address and size, and its data length only rises (from nothing to the
// region's size, on the first write); nothing unmaps or shrinks one, and
// interposed sbrk maps a fresh region per growth. Only a restore replaces
// the upper half.
//
// Memory and checkpoint cost are proportional to the bytes a run writes
// and to what is particular to one space, not to address-space size.
// Region contents live in a sparse page store (pages.go): a region
// records its logical data length and holds a buffer only for pages that
// were written, only as long as the prefix of the page that was written
// (64 B to 4 KiB); an absent page, and the tail past a short buffer, read
// as zeros and cost nothing to keep, capture, compare or hash. What a
// region is — name, half, kind, address, size — is an immutable Region
// that spaces with the same map share: the map they are built from
// (Layout), and the mappings the spaces of one job make alike afterwards,
// such as every rank's interposed sbrk (Mappings). A live region
// (live.go) is a pointer to it plus the contents and dirtiness this space
// added.
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
// capture and RegionsOf hand it out, and as live spaces
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
// driving that rank's job: its event loop, capture, restore and
// fingerprint. It therefore carries
// no lock, and cmd/isolint rejects a sync or atomic field on it, on
// Region or on its live regions. What ranks do share is Region
// descriptors, frozen pages and, until a space first changes its map,
// its Layout's region table: all three are immutable while shared. The
// job's mapping table (Mappings), which does change, belongs to the
// goroutine driving the job, as its spaces do.
type AddressSpace struct {
	// regions holds each half's regions in ascending address order.
	// Addresses are handed out monotonically per half, so a new mapping
	// appends and every capture path iterates in place: no map, and so no
	// map order, ever stands between the space and an image.
	regions     [2][]liveRegion
	nextUpper   uint64
	nextLower   uint64
	brk         uint64 // simulated program break (upper-half data segment end)
	sbrkInter   bool   // MANA's sbrk interposition active
	postRestart bool   // true once the space has been rebuilt from an image
	// shared is set while regions are a Layout's own table, which
	// NewSpace hands out as it is: every path that edits or appends a
	// region entry calls own first, and readers use the table in place.
	shared bool
	// upperRoom is how many upper-half mappings the space's region
	// tables are sized for (NewSpace, Restored): own and RestoreUpperHalf
	// give the upper half that capacity when it holds fewer.
	upperRoom uint32
	// maps is the job's mapping table, nil for a space outside a job:
	// a new mapping takes its descriptor from there when a sibling space
	// already made the same one (mapping).
	maps *Mappings
	// gen counts committed snapshot generations (CommitUpperHalf and
	// CommitUpperHalfDelta); deltas are always relative to generation gen.
	gen uint64
	// lastWrite is the live region the previous write resolved its address
	// to, tried before the search: a workload step writes the same region
	// over and over. Nil after anything that adds regions to the space or
	// replaces them (it points into regions).
	lastWrite *liveRegion
	// last is what the committed generation's captures built, handed out
	// again while the space is unchanged (see unchanged); nil until the
	// first commit, and after a delta commit that carried a page.
	last *lastCommit
}

// lastCommit remembers the captures of a space's committed generation: its
// full snapshot and the region list of a delta that carries no page, each
// nil until a capture of the generation builds it (a capture's slices are
// never nil, even with no region). A commit of a space that
// has not changed since returns them instead of copying the same layout
// again, so back-to-back checkpoints share one snapshot, header and
// region array alike.
type lastCommit struct {
	n       int // upper-half regions at the commit
	snap    *Snapshot
	regions []RegionDelta
	scanned int // the delta's ScannedPages
}

// unchanged reports whether the upper half still holds exactly what
// a.last was captured from: as many regions, none of them dirty. The
// space only grows, so that is enough: a new region is born all-dirty,
// the write that lengthens a region's data marks it all-dirty, and the
// program break moves only with a new region. The one path that replaces
// regions, a restore, drops the memo.
func (a *AddressSpace) unchanged() bool {
	upper := a.regions[UpperHalf]
	if a.last == nil || a.last.n != len(upper) {
		return false
	}
	for i := range upper {
		if r := &upper[i]; r.allDirty || r.mut != nil && r.mut.dirty.any() {
			return false
		}
	}
	return true
}

// NewAddressSpace returns an empty address space with MANA's sbrk
// interposition enabled (the default when running under MANA).
func NewAddressSpace() *AddressSpace {
	return &AddressSpace{
		nextUpper: upperBase,
		nextLower: lowerBase,
		brk:       upperBase,
		sbrkInter: true,
	}
}

// SetSbrkInterposition enables or disables MANA's interposition on sbrk.
// Disabling it exposes the §2.1 hazard, which the tests exercise.
func (a *AddressSpace) SetSbrkInterposition(on bool) {
	a.sbrkInter = on
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

// find returns the live region starting at addr, or nil. The halves
// occupy disjoint address ranges, so the address picks the list; within
// it regions are sorted.
func (a *AddressSpace) find(addr uint64) *liveRegion {
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
		return &list[lo]
	}
	return nil
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
	a.own()
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
	a.regions[half] = append(a.regions[half], a.mapping(name, half, kind, addr, size, dataLen))
	a.lastWrite = nil
	return &a.regions[half][len(a.regions[half])-1]
}

// MmapZero creates a region whose contents are n zero bytes: no page is
// materialised until one is written, while the data length — which
// fingerprints and images record — is n from the start.
func (a *AddressSpace) MmapZero(name string, half Half, kind Kind, n uint64) *Region {
	return a.mmap(name, half, kind, n, n).desc
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

// BytesOf returns the total size in bytes of all regions in one half.
func (a *AddressSpace) BytesOf(half Half) uint64 {
	var total uint64
	for _, r := range a.regions[half] {
		total += r.desc.Size
	}
	return total
}

// WriteSpan returns the n bytes at offset in the region starting at
// addr, which must lie within one page, as a buffer the region owns, and
// marks them written. It is the one way a rank writes its memory. Only
// the page the span lies in is materialised, and only as far as the span
// reaches into it. The caller stores the bytes into the buffer before its
// next call on the space; a byte it leaves alone keeps what the region
// held. The call allocates nothing but, when the page needs one, its new
// buffer, and returns an error if the region does not exist or the span
// would overflow it.
//
// Every write to a live region takes one path: prepareWrite (the region,
// its contents, data length and page table), then span for each page
// the bytes reach (the page's own buffer, long enough, and its dirty
// bit).
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
	a.own()
	r := a.lastWrite
	if r == nil || r.desc.Addr != addr {
		if r = a.find(addr); r == nil {
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
		r.allDirty, r.hashOK = true, false
	}
	if want := pageCount(size); n > 0 && len(m.pages) < want {
		m.pages = append(m.pages, make([]*page, want-len(m.pages))...)
	}
	return r, nil
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
	if _, err := a.readable(addr, offset, length); err != nil {
		return nil, err
	}
	out := make([]byte, length)
	return out, a.ReadInto(addr, offset, out)
}

// readable returns the live region starting at addr if it holds length
// bytes at offset.
func (a *AddressSpace) readable(addr, offset, length uint64) (*liveRegion, error) {
	r := a.find(addr)
	if r == nil {
		return nil, fmt.Errorf("memsim: read from unmapped region 0x%x", addr)
	}
	if size := r.desc.Size; offset > size || length > size-offset {
		return nil, fmt.Errorf("memsim: read of %d bytes at offset %d overflows region %q (size %d)",
			length, offset, r.desc.Name, size)
	}
	return r, nil
}

// ReadInto copies the len(dst) bytes at offset in the region starting at
// addr into dst, allocating nothing.
func (a *AddressSpace) ReadInto(addr uint64, offset uint64, dst []byte) error {
	length := uint64(len(dst))
	r, err := a.readable(addr, offset, length)
	if err != nil {
		return err
	}
	// Absent pages, the tail past a short buffer and everything past the
	// data length read as zeros.
	pages := r.pages()
	for done := uint64(0); done < length; {
		at := offset + done
		n := min(PageSize-at%PageSize, length-done)
		out, copied := dst[done:done+n], 0
		if b := pageAt(pages, int(at/PageSize)).buf(); at%PageSize < uint64(len(b)) {
			copied = copy(out, b[at%PageSize:])
		}
		clear(out[copied:])
		done += n
	}
	return nil
}

// Snapshot is the set of regions a checkpoint image carries: exactly the
// upper-half regions (the lower half is discarded).
//
// A snapshot is a read-only payload, handed out by pointer and shared: a
// capture of a space that has not changed since its last commit returns
// that commit's *Snapshot itself, Regions and RegionHashes backing
// included, and ApplyDelta shares page tables with its base (or returns
// the base, for a delta that changes nothing). Code that edits a snapshot
// copies the header first and CorruptSnapshot copies the slice it edits.
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

// inlineHashes is how many regions a snapshot's header holds the digests
// of in its own allocation: an upper half maps seven regions, and a heap
// region more per sbrk.
const inlineHashes = 16

// newSnapshot returns a snapshot of n zero regions and digests at program
// break brk. Up to inlineHashes regions, the header and its RegionHashes
// are one allocation: a snapshot is handed out by pointer, and its header
// lives exactly as long as its digests.
func newSnapshot(brk uint64, n int) *Snapshot {
	if n > inlineHashes {
		return &Snapshot{Brk: brk, Regions: make([]Region, n), RegionHashes: make([]uint64, n)}
	}
	b := &struct {
		s Snapshot
		h [inlineHashes]uint64
	}{}
	b.s = Snapshot{Brk: brk, Regions: make([]Region, n), RegionHashes: b.h[:n:n]}
	return &b.s
}

// capture builds a full snapshot by sharing, not copying: each
// region contributes a copy of its page table, and the pages themselves
// are frozen so the live space copies one on its next write to it. When
// commit is set the captured contents also become the base generation
// every later delta is relative to, and the dirty bitmaps are cleared.
// A space unchanged since its last commit returns the snapshot it
// remembers of it, once one was taken: the same pointer.
func (a *AddressSpace) capture(commit bool) *Snapshot {
	a.own()
	same := a.unchanged()
	if same && a.last.snap != nil {
		if commit {
			a.gen++
		}
		return a.last.snap
	}
	upper := a.regions[UpperHalf]
	snap := newSnapshot(a.brk, len(upper))
	for i := range upper {
		r := &upper[i]
		r.view(&snap.Regions[i])
		snap.RegionHashes[i] = r.contentHashNow()
		if commit {
			r.rebase()
		}
	}
	switch {
	case same:
		a.last.snap = snap
	case commit:
		a.last = &lastCommit{n: len(upper), snap: snap}
	}
	if commit {
		a.gen++
	}
	return snap
}

// CommitUpperHalf captures all upper-half regions and records the result
// as the new committed generation: dirty bitmaps are cleared and the next
// delta (CommitUpperHalfDelta) is relative to this snapshot. This is what
// MANA's checkpoint helper writes to a full image file. A space that has
// not changed since its last commit — no page written, the same regions
// and program break — returns the snapshot that commit (or a capture
// since) built: the same *Snapshot, not a copy.
func (a *AddressSpace) CommitUpperHalf() *Snapshot {
	return a.capture(true)
}

// Fingerprint returns SnapshotUpperHalf().Fingerprint() without building
// the snapshot: the live regions are hashed in place (per-region memo,
// absent pages skipped), nothing is copied and no page is frozen.
func (a *AddressSpace) Fingerprint() uint64 { return a.fingerprint(nil, nil) }

// FingerprintWith returns the Fingerprint the space would have after
// prefix was written at offset 0 of the region starting at addr, without
// writing it: the region hashes as prefix, then the rest of its bytes as
// they stand, at the full data length a first WriteSpan gives it. It
// allocates no page, sets no dirty bit and memoises nothing for that
// region. An empty prefix is no write.
func (a *AddressSpace) FingerprintWith(addr uint64, prefix []byte) (uint64, error) {
	target := a.find(addr)
	if target == nil {
		return 0, fmt.Errorf("memsim: fingerprint over unmapped region 0x%x", addr)
	}
	if uint64(len(prefix)) > target.desc.Size {
		return 0, fmt.Errorf("memsim: %d-byte prefix overflows region %q (size %d)",
			len(prefix), target.desc.Name, target.desc.Size)
	}
	return a.fingerprint(target, prefix), nil
}

// fingerprint folds the upper half's layout and region digests, with the
// first len(prefix) bytes of region over taken from prefix.
func (a *AddressSpace) fingerprint(over *liveRegion, prefix []byte) uint64 {
	upper := a.regions[UpperHalf]
	h := fnv1a.Offset.U64(a.brk).U64(uint64(len(upper)))
	for i := range upper {
		if r := &upper[i]; r == over && len(prefix) > 0 {
			h = h.U64(r.desc.hashWith(r.desc.Size, r.pages(), prefix))
		} else {
			h = h.U64(r.contentHashNow())
		}
	}
	return uint64(h)
}

// Generation returns the number of committed snapshots (full or delta)
// taken of this space. Zero means no base exists yet, so an incremental
// capture must fall back to a full one.
func (a *AddressSpace) Generation() uint64 {
	return a.gen
}

// TotalBytes returns the number of bytes of memory captured by the
// snapshot; this is the per-rank checkpoint image payload size.
func (s *Snapshot) TotalBytes() uint64 {
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
func (s *Snapshot) Fingerprint() uint64 {
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
func (a *AddressSpace) RestoreUpperHalf(s *Snapshot) {
	// A restored region shares the image's contents — its descriptor is
	// the image's Region, page table included, and a write copies table
	// and page first, so the image stays immutable — and starts entirely
	// dirty with no committed base: restart begins a new incremental
	// chain. One allocation, whatever the region count, after own's copy
	// on a space that still shares its layout's table (a restart restores
	// into a Bootstrap space, which never does), sized for the mappings
	// its reserve asked for: a restarted rank's space (Restored) is
	// sized as a new one of its job, which leaves room for the sbrks its
	// program makes after the image's pc. This is the one path that
	// replaces regions rather than adding them, so it drops the
	// last-commit memo (see unchanged).
	a.own()
	descs := s.Regions
	upper := make([]liveRegion, len(descs), max(len(descs), int(a.upperRoom)))
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
	a.lastWrite, a.last = nil, nil
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
func (s *Snapshot) Equal(o *Snapshot) bool {
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
