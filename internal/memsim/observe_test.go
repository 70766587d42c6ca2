package memsim

import "math/bits"

// Fixtures and observers the tests use and no run needs.

// mmapWithData maps a region whose contents are data: its data length is
// len(data), not the page-rounded size a first write would give it, and
// every page data reaches is written.
func mmapWithData(a *AddressSpace, name string, half Half, kind Kind, data []byte) *Region {
	r := a.mmap(name, half, kind, uint64(len(data)), 0)
	if len(data) > 0 {
		m := r.own()
		m.dataLen = uint64(len(data))
		m.pages = make([]*page, pageCount(m.dataLen))
		for off := 0; off < len(data); {
			n := min(PageSize-off%PageSize, len(data)-off)
			copy(a.span(r, uint64(off), n), data[off:off+n])
			off += n
		}
	}
	return r.desc
}

// regions returns deep copies of every region, sorted by address: the
// upper half's range lies below the lower half's.
func regions(a *AddressSpace) []Region {
	return append(a.RegionsOf(UpperHalf), a.RegionsOf(LowerHalf)...)
}

// regionAt returns a deep copy of the region starting at addr, if any.
func regionAt(a *AddressSpace, addr uint64) (Region, bool) {
	for _, r := range regions(a) {
		if r.Addr == addr {
			return r, true
		}
	}
	return Region{}, false
}

// dirtyPagesAt returns the dirty page indices of the region at addr, in
// ascending order, and whether the region exists.
func dirtyPagesAt(a *AddressSpace, addr uint64) ([]int, bool) {
	r := a.find(addr)
	if r == nil {
		return nil, false
	}
	return r.dirtyPages(), true
}

// dirtyPages returns the region's dirty page indices in ascending order.
func (r *liveRegion) dirtyPages() []int {
	switch {
	case r.allDirty:
		out := make([]int, pageCount(r.desc.Size))
		for i := range out {
			out[i] = i
		}
		return out
	case r.mut != nil:
		var out []int
		for w, word := range r.mut.dirty {
			for ; word != 0; word &= word - 1 {
				out = append(out, w*64+bits.TrailingZeros64(word))
			}
		}
		return out
	}
	return nil
}
