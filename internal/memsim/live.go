package memsim

import (
	"math"
	"slices"
)

// liveRegion is one mapping of a live address space: a pointer to the
// immutable Region describing it, plus only the state this space has
// added since. A region nothing wrote to costs its space these four
// words, and nothing while the space shares its layout's table; a
// space's own table of twelve is one allocation (AddressSpace.own). A
// mapping made after the space was built costs its four words and, only
// when no other space of its job made the same one first, the
// descriptor (Mappings).
type liveRegion struct {
	// desc is the region as it was mapped or restored — name, half, kind,
	// address, size, and the contents it started with. It is never
	// written: a layout's descriptors are shared by every space built
	// from it, on any goroutine, and a job table's by the spaces of the
	// job that mapped alike.
	desc *Region
	// mut holds the region's contents once they differ from desc's; nil
	// until the first write.
	mut *contents
	// hash memoises the region's content digest; hashOK is cleared by
	// every mutation so Fingerprint never re-hashes clean regions.
	hash   uint64
	hashOK bool
	// allDirty stands for a dirty bitmap of all ones: a newborn,
	// restored or newly lengthened region, all of which the next
	// incremental snapshot must carry whole. A bitmap (mut.dirty)
	// exists only once a region is partially dirty, and only means
	// anything while allDirty is false. Lower-half regions are born
	// allDirty and stay so — nothing ever commits them — which is all the
	// dirtiness they track.
	allDirty bool
}

// contents is the mutable state of a live region that has been written.
type contents struct {
	// dataLen and pages are the live Region.DataLen and page table; the
	// descriptor's no longer count.
	dataLen uint64
	pages   []*page
	// owned has bit i set while this region is the only reference to
	// pages[i], so the page may be written in place. Only bits below
	// len(pages) mean anything.
	owned bitmap
	// dirty has bit i set when page i has been written since the last
	// committed generation (see liveRegion.allDirty).
	dirty bitmap
	// base is the page table of the last committed generation and baseLen
	// its data length: what a delta commit dedups dirty pages against.
	// baseLen is zero when the region has not been committed since it was
	// created or restored.
	base    []*page
	baseLen uint64
}

func (r *liveRegion) dataLen() uint64 {
	if r.mut != nil {
		return r.mut.dataLen
	}
	return r.desc.DataLen
}

func (r *liveRegion) pages() []*page {
	if r.mut != nil {
		return r.mut.pages
	}
	return r.desc.pages
}

// committed returns the page table and data length of the generation a
// delta dedups against. A region still sharing its descriptor's contents
// was committed with exactly those, if it was committed at all.
func (r *liveRegion) committed() ([]*page, uint64) {
	switch {
	case r.mut != nil:
		return r.mut.base, r.mut.baseLen
	case !r.allDirty:
		return r.desc.pages, r.desc.DataLen
	}
	return nil, 0
}

// own gives the region private contents, seeded from its descriptor, and
// returns them. The descriptor's pages stay frozen: the copy of the page
// table owns none of them.
func (r *liveRegion) own() *contents {
	if r.mut == nil {
		r.mut = &contents{dataLen: r.desc.DataLen, pages: slices.Clone(r.desc.pages)}
		if !r.allDirty {
			// rebase writes base in place; the descriptor's table is not ours.
			r.mut.base, r.mut.baseLen = slices.Clone(r.desc.pages), r.desc.DataLen
		}
	}
	return r.mut
}

// contentHashNow returns the region's memoised content digest,
// refreshing it if a write invalidated the memo.
func (r *liveRegion) contentHashNow() uint64 {
	if !r.hashOK {
		r.hash = r.desc.hashWith(r.dataLen(), r.pages(), nil)
		r.hashOK = true
	}
	return r.hash
}

// markDirty sets the dirty bits for the byte range [off, off+n) of a
// region that has contents.
func (r *liveRegion) markDirty(off, n uint64) {
	if n == 0 {
		return
	}
	r.hashOK = false
	if r.allDirty {
		return
	}
	m := r.mut
	m.dirty = m.dirty.sized(pageCount(r.desc.Size))
	first := int(off / PageSize)
	last := int((off + n - 1) / PageSize)
	for p := first; p <= last; p++ {
		m.dirty[p/64] |= 1 << (uint(p) % 64)
	}
}

// view fills in *c with the region as a capture carries it: metadata,
// data length and a page table the live space will not write. Every page
// the live region owned is frozen by the call — the view now shares it —
// so later writes copy the page instead of reaching the capture.
func (r *liveRegion) view(c *Region) {
	*c = *r.desc
	if m := r.mut; m != nil {
		clear(m.owned)
		c.DataLen, c.pages = m.dataLen, slices.Clone(m.pages)
	}
}

// rebase makes the region's current contents the committed generation:
// the page table a later delta dedups dirty pages against. All pages are
// frozen (the generation's snapshot or delta references them) and the
// dirty bits are cleared. A clean region keeps its base untouched.
func (r *liveRegion) rebase() {
	m := r.mut
	if !r.allDirty && (m == nil || !m.dirty.any()) {
		return
	}
	r.allDirty = false
	if m == nil {
		return // committed() reads the base off the descriptor
	}
	if len(m.base) != len(m.pages) {
		m.base = make([]*page, len(m.pages))
	}
	copy(m.base, m.pages)
	m.baseLen = m.dataLen
	clear(m.owned)
	clear(m.dirty)
}

// writable returns the buffer of page idx as one the region owns and
// that is at least need bytes long, materialising an absent page,
// copying a frozen one's prefix and replacing one that is too short.
func (a *AddressSpace) writable(m *contents, idx, need int) []byte {
	p := m.pages[idx]
	if p != nil && m.owned.test(idx) {
		if len(p.b) >= need {
			return p.b
		}
	} else {
		m.owned = m.owned.sized(len(m.pages))
		m.owned[idx/64] |= 1 << (uint(idx) % 64)
	}
	was := p.buf()
	fresh := newPage(bufClass(max(need, len(was))))
	copy(fresh.b, was)
	m.pages[idx] = fresh
	return fresh.b
}

// Mappings is a job's table of the mappings its spaces make after they
// are built: one slot per region position in each half, holding the
// first descriptor mapped at that position with its content digest
// memoised, like a Layout's. Interposed sbrk maps a fresh region per
// growth, and in an SPMD job every rank grows its heap alike — the same
// mappings at the same addresses — so a rank's sbrk takes the slot's
// descriptor instead of allocating one of its own, and the final
// fingerprint hashes it once per job rather than once per rank. A
// mapping that differs from its slot's gets a private descriptor and
// leaves the slot alone. The zero value is an empty table.
//
// A table belongs to the goroutine driving its job, as the job's
// address spaces do (AddressSpace): it has no lock, and spaces of
// different jobs never share one. The descriptors it hands out are
// immutable, like every descriptor, so sharing one changes no capture,
// image or digest.
type Mappings struct {
	slots [2][]liveRegion
}

// mapping returns the live region a new mapping at the end of half
// starts as. A newborn region is entirely dirty: the next incremental
// snapshot must carry it whole (there is no committed base to delta
// against). Its descriptor is the job table's slot for its position when
// the slot describes the same mapping (the half is the slot's own);
// otherwise it is allocated here, and recorded in the slot when the slot
// is empty. The descriptor's fields are compared one by one, so a hit
// allocates nothing.
func (a *AddressSpace) mapping(name string, half Half, kind Kind, addr, size, dataLen uint64) liveRegion {
	var slot *liveRegion
	if m, i := a.maps, len(a.regions[half]); m != nil {
		if n := len(m.slots[half]); i >= n {
			m.slots[half] = append(m.slots[half], make([]liveRegion, i+1-n)...)
		}
		slot = &m.slots[half][i]
		if d := slot.desc; d != nil && d.Name == name && d.Kind == kind &&
			d.Addr == addr && d.Size == size && d.DataLen == dataLen {
			return *slot
		}
	}
	r := liveRegion{desc: &Region{Name: name, Half: half, Kind: kind, Addr: addr, Size: size, DataLen: dataLen}, allDirty: true}
	if slot != nil && slot.desc == nil {
		r.hash, r.hashOK = r.desc.contentHash(), true
		*slot = r
	}
	return r
}

// Layout is an immutable memory map — the regions of both halves with
// their names, tags, addresses, sizes, starting contents and content
// digests — from which any number of address spaces can be built without
// repeating it. MANA's split process gives every rank of a job the same
// map (§2.1), so a job holds one Layout, and a rank built from it shares
// its region table until the rank first changes its map. Nothing writes
// a Layout after AddressSpace.Layout returns it; spaces built from it on
// different goroutines share it freely. It covers the map a space starts
// with; what the ranks of one job map later is shared through their
// Mappings table, which a Layout never carries: each space built from
// one is given its job's table (NewSpace, Restored), or none.
type Layout struct {
	// space is what NewSpace copies: allocation cursors, program break,
	// and regions that are nothing but their descriptors, with their
	// content digests memoised so no reader writes a memo into them.
	space AddressSpace
}

// Layout returns the space's current memory map as a prototype for new
// spaces. The space's pages are frozen as by a capture; it can go on
// being used, or be dropped.
func (a *AddressSpace) Layout() *Layout {
	l := &Layout{space: *a}
	l.space.lastWrite, l.space.last, l.space.gen, l.space.postRestart, l.space.maps = nil, nil, 0, false, nil
	l.space.upperRoom = 0
	for half, list := range a.regions {
		descs := make([]Region, len(list))
		proto := make([]liveRegion, len(list))
		for i := range list {
			list[i].view(&descs[i])
			proto[i] = liveRegion{desc: &descs[i], hash: list[i].contentHashNow(), hashOK: true, allDirty: true}
		}
		l.space.regions[half] = proto
	}
	return l
}

// NewSpace returns an address space holding the layout's mappings: the
// space that making the same Mmap calls on a fresh one would build. It
// records the mappings it makes in maps, the job's table (nil outside a
// job; see mapping), and its upper-half region table has room for n
// mappings past the layout's, so that many Mmap or Sbrk calls — a rank
// reserves the sbrks its program makes — fill it in place. It allocates
// only the space's record: the space reads the layout's region table in
// place, and copies it, once, when it first edits or appends a region
// entry (own). A space that never maps, writes, captures or restores
// costs no region state of its own.
func (l *Layout) NewSpace(maps *Mappings, n int) *AddressSpace {
	a := l.space
	a.shared, a.maps, a.upperRoom = true, maps, l.room(n)
	return &a
}

// room is the upper-half capacity of a space built from the layout with
// a reserve of n mappings.
func (l *Layout) room(n int) uint32 {
	return uint32(min(uint64(len(l.space.regions[UpperHalf])+max(n, 0)), math.MaxUint32))
}

// own gives a space sharing its layout's region table a copy of its own,
// for one allocation holding both halves and the upper-half room its
// reserve asked for (NewSpace), before anything edits or appends a region
// entry; on a space that already owns its table it does nothing. Every
// such path calls it first: mmap, prepareWrite, capture and
// RestoreUpperHalf. CommitUpperHalfDelta needs no call: it panics on a
// space with no committed generation, and a space gets one only from
// capture. A rank's space is built from its job's Layout and reserves
// the sbrks its program makes, so its heap grows into the reserve and
// the table is never copied again.
func (a *AddressSpace) own() {
	if !a.shared {
		return
	}
	upper, lower := a.regions[UpperHalf], a.regions[LowerHalf]
	room := max(len(upper), int(a.upperRoom))
	all := make([]liveRegion, room+len(lower))
	copy(all, upper)
	copy(all[room:], lower)
	// The upper half's capacity ends at its reserve and the lower half's
	// at the table's end, so a Mmap past either appends to a copy.
	a.regions[UpperHalf] = all[:len(upper):room]
	a.regions[LowerHalf] = all[room:]
	a.shared, a.lastWrite = false, nil
}

// Bootstrap returns a fresh address space holding only the layout's
// lower half: the bootstrap program a restart begins in, before
// RestoreUpperHalf maps a checkpoint image over it. It belongs to no job
// and reserves no room.
func (l *Layout) Bootstrap() *AddressSpace {
	a := NewAddressSpace()
	a.regions[LowerHalf] = slices.Clone(l.space.regions[LowerHalf])
	a.nextLower = l.space.nextLower
	return a
}

// Restored returns the space a restart brings up from s: the layout's
// bootstrap program with s's upper half mapped over it. It records its
// mappings in maps, the job's table, so the heap growths replayed after
// it share descriptors as the first ones did. Its upper-half table has
// room for the layout's upper half and n more mappings, as a space built
// from the layout that reserved n has: the replayed timeline maps what
// the first one did, so with n the sbrks the program makes, the table
// has room for exactly those it makes after s was captured.
func (l *Layout) Restored(s *Snapshot, maps *Mappings, n int) *AddressSpace {
	a := l.Bootstrap()
	a.maps, a.upperRoom = maps, l.room(n)
	a.RestoreUpperHalf(s)
	return a
}
