package memsim

import "bytes"

// Write stores data into the region starting at addr at the given offset:
// prepareWrite, then span for each page the bytes reach, which is
// WriteSpan's path page by page. No rank writes this way (flushMarkers
// fills WriteSpan's buffers in place); it stays because
// bench/probes.go:54 writes a page into each region through it.
func (a *AddressSpace) Write(addr uint64, offset uint64, data []byte) error {
	r, err := a.prepareWrite(addr, offset, uint64(len(data)))
	if err != nil {
		return err
	}
	for len(data) > 0 {
		n := min(PageSize-int(offset%PageSize), len(data))
		copy(a.span(r, offset, n), data[:n])
		data = data[n:]
		offset += uint64(n)
	}
	return nil
}

// RegionsOf returns deep copies of the regions belonging to one half,
// sorted by address. It stays because bench/probes.go:52 lists the upper
// half's regions through it.
func (a *AddressSpace) RegionsOf(half Half) []Region {
	out := make([]Region, 0, len(a.regions[half]))
	for i := range a.regions[half] {
		r := &a.regions[half][i]
		c := *r.desc
		c.DataLen, c.pages = r.dataLen(), nil
		if pages := r.pages(); pages != nil {
			c.pages = make([]*page, len(pages))
			for i, p := range pages {
				if p != nil {
					c.pages[i] = &page{b: bytes.Clone(p.b)}
				}
			}
		}
		out = append(out, c)
	}
	return out
}

// SnapshotUpperHalf captures all upper-half regions without committing:
// the dirty bitmaps and the committed base are left untouched, so
// observing the space never perturbs incremental checkpointing. Like
// CommitUpperHalf it returns the last commit's snapshot, shared, when
// nothing changed since. It stays because bench/probes.go:173 captures
// through it.
func (a *AddressSpace) SnapshotUpperHalf() *Snapshot {
	return a.capture(false)
}
