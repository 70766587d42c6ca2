package memsim

import "slices"

// liveRegion is one mapping of a live address space: a pointer to the
// immutable Region describing it, plus only the state this space has
// added since. A region nothing wrote to costs its space these four
// words; twelve of them are one allocation (Layout.NewSpace).
type liveRegion struct {
	// desc is the region as it was mapped or restored — name, half, kind,
	// address, size, and the contents it started with. It is never
	// written: a layout's descriptors are shared by every space built
	// from it, on any goroutine.
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
		r.hash = r.desc.hashWith(r.dataLen(), r.pages())
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

// Layout is an immutable memory map — the regions of both halves with
// their names, tags, addresses, sizes, starting contents and content
// digests — from which any number of address spaces can be built without
// repeating it. MANA's split process gives every rank of a job the same
// map (§2.1), so a job holds one Layout and a rank holds a pointer per
// region into it. Nothing writes a Layout after AddressSpace.Layout
// returns it; spaces built from it on different goroutines share it
// freely.
type Layout struct {
	// space is what NewSpace copies: allocation cursors, program break,
	// and regions that are nothing but their descriptors.
	space AddressSpace
}

// Layout returns the space's current memory map as a prototype for new
// spaces. The space's pages are frozen as by a capture; it can go on
// being used, or be dropped.
func (a *AddressSpace) Layout() *Layout {
	l := &Layout{space: *a}
	l.space.lastWrite, l.space.last, l.space.gen, l.space.postRestart = nil, nil, 0, false
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
// space that making the same Mmap calls on a fresh one would build, for
// one allocation of region state.
func (l *Layout) NewSpace() *AddressSpace {
	a := l.space
	upper, lower := a.regions[UpperHalf], a.regions[LowerHalf]
	all := make([]liveRegion, len(upper)+len(lower))
	copy(all, upper)
	copy(all[len(upper):], lower)
	// Capacities end at the half, so a later Mmap appends to a copy.
	a.regions[UpperHalf] = all[:len(upper):len(upper)]
	a.regions[LowerHalf] = all[len(upper):]
	return &a
}

// Bootstrap returns a fresh address space holding only the layout's
// lower half: the bootstrap program a restart begins in, before
// RestoreUpperHalf maps a checkpoint image over it.
func (l *Layout) Bootstrap() *AddressSpace {
	a := NewAddressSpace()
	a.regions[LowerHalf] = slices.Clone(l.space.regions[LowerHalf])
	a.nextLower = l.space.nextLower
	return a
}
