package memsim

import "fmt"

// PageDelta is one dirty page carried by an incremental snapshot.
type PageDelta struct {
	// Index is the page's index within its region (offset Index*PageSize).
	Index int
	// Hash is the FNV-1a digest of the page's contents, used for the
	// checkpoint fingerprint and for cross-generation dedup accounting.
	Hash uint64
	// Len is the page's content length: PageSize, or less for the last
	// page of a region whose data length is not page-aligned.
	Len int
	// Data is the page's contents, Len bytes of a frozen page buffer
	// shared with the live space — never written through — or nil for a
	// page nothing has been written to: Len zero bytes, carried without
	// being materialised.
	Data []byte
}

// RegionDelta describes one live upper-half region in an incremental
// snapshot: full layout metadata (so the overlay can create, resize and
// drop regions) plus only the dirty, non-deduplicated pages.
type RegionDelta struct {
	Name string
	Half Half
	Kind Kind
	Addr uint64
	Size uint64
	// DataLen is the region's logical content length (Region.DataLen). It
	// is part of the checkpointable state: Equal and Fingerprint
	// distinguish a contentless region from one holding zeros, so the
	// overlay must reproduce it exactly.
	DataLen uint64
	// Pages holds the dirty pages whose content changed since the base
	// generation, sorted by ascending Index.
	Pages []PageDelta
}

// Delta is an incremental snapshot: everything needed to reconstruct a
// full Snapshot by overlaying it onto the base generation it was captured
// against. Regions absent from the delta were unmapped since the base and
// are dropped by the overlay; regions present but without a matching base
// region were created since and are rebuilt from metadata plus pages.
type Delta struct {
	// BaseGen is the committed generation this delta is relative to;
	// applying it to any other generation is unsound.
	BaseGen uint64
	Brk     uint64
	Regions []RegionDelta

	// ScannedPages counts every upper-half page whose dirty bit was
	// inspected — the page-table-scan cost of the capture.
	ScannedPages int
	// DirtyPages / DirtyBytes count the pages (and their content bytes)
	// marked dirty since the base, before dedup.
	DirtyPages int
	DirtyBytes uint64
	// DedupBytes counts dirty page bytes dropped because their contents
	// were bit-identical to the base generation (pages rewritten with the
	// same values). The pipeline reports DedupBytes/DirtyBytes as the
	// dedup ratio.
	DedupBytes uint64
}

// contentHash digests the page's contents; an unmaterialised page is Len
// zeros.
func (p PageDelta) contentHash() uint64 {
	if p.Data == nil {
		return uint64(fnvOffset.zeros(uint64(p.Len)))
	}
	return uint64(fnvOffset.bytes(p.Data))
}

// PayloadBytes returns the page content bytes the delta carries — the
// quantity an incremental image write is charged for.
func (d Delta) PayloadBytes() uint64 {
	var total uint64
	for _, rd := range d.Regions {
		for _, p := range rd.Pages {
			total += uint64(p.Len)
		}
	}
	return total
}

// FullBytes returns what a full snapshot of the same layout would have
// carried (the sum of region sizes), for full-vs-incremental reporting.
func (d Delta) FullBytes() uint64 {
	var total uint64
	for _, rd := range d.Regions {
		total += rd.Size
	}
	return total
}

// CommitUpperHalfDelta captures an incremental snapshot — only the pages
// dirtied since the last committed generation, plus layout metadata for
// every live upper-half region — and records the current contents as the
// new committed generation, exactly as CommitUpperHalf does. Dirty pages
// whose contents are bit-identical to the base (rewritten with the same
// values) are deduplicated: the overlay falls back to the base content
// for any page the delta does not carry, so dropping them is lossless (the
// comparison is of the bytes themselves, not of a hash). A carried page is
// shared, not copied: the delta references the live page, which is frozen
// by the commit. A dirty page that was never written counts like any
// other — scanned, dirty, carried — but stays unmaterialised.
//
// Determinism rules: regions are ordered by ascending address, pages by
// ascending index.
//
// The call panics if no generation has been committed yet: the first
// capture of a space must be a full CommitUpperHalf.
func (a *AddressSpace) CommitUpperHalfDelta() Delta {
	if a.gen == 0 {
		panic("memsim: incremental capture with no committed base generation")
	}
	d := Delta{BaseGen: a.gen, Brk: a.brk}
	for _, r := range a.regions[UpperHalf] {
		rd := RegionDelta{
			Name: r.Name, Half: r.Half, Kind: r.Kind,
			Addr: r.Addr, Size: r.Size, DataLen: r.DataLen,
		}
		d.ScannedPages += pageCount(r.Size)
		for _, idx := range r.dirty.indices() {
			start, end := pageExtent(idx, rd.DataLen)
			if start >= end {
				continue
			}
			n := end - start
			cur := pageAt(r.pages, idx)
			d.DirtyPages++
			d.DirtyBytes += n
			if end <= r.baseLen && samePage(cur, pageAt(r.base, idx), n) {
				d.DedupBytes += n
				continue
			}
			pd := PageDelta{Index: idx, Len: int(n)}
			if cur != nil {
				pd.Data = cur[:n]
			}
			pd.Hash = pd.contentHash()
			rd.Pages = append(rd.Pages, pd)
		}
		d.Regions = append(d.Regions, rd)
		// The content-hash memo of a dirty region stays invalidated:
		// deltas never need the region digest, and recomputing it here
		// would put a hash of every present page back on the O(dirty)
		// capture path. The next Fingerprint refreshes it lazily.
		r.rebase()
	}
	a.gen++
	return d
}

// ApplyDelta overlays an incremental snapshot onto the base generation it
// was captured against and returns the materialised full snapshot,
// bit-identical (layout, contents, data lengths, fingerprint) to the full
// CommitUpperHalf that would have been taken at the same instant. Regions
// the delta does not mention are dropped; regions without a matching base
// region are rebuilt from absent pages plus carried ones. The result
// shares pages with both inputs; none is copied.
func ApplyDelta(base Snapshot, d Delta) Snapshot {
	baseIdx := make(map[uint64]int, len(base.Regions))
	for i := range base.Regions {
		baseIdx[base.Regions[i].Addr] = i
	}
	baseHashes := len(base.RegionHashes) == len(base.Regions)
	out := Snapshot{
		Brk:          d.Brk,
		Regions:      make([]Region, 0, len(d.Regions)),
		RegionHashes: make([]uint64, 0, len(d.Regions)),
	}
	for _, rd := range d.Regions {
		r := Region{Name: rd.Name, Half: rd.Half, Kind: rd.Kind, Addr: rd.Addr, Size: rd.Size, DataLen: rd.DataLen}
		var b *Region
		bi, ok := baseIdx[rd.Addr]
		if ok {
			b = &base.Regions[bi]
			if b.Name != rd.Name || b.Size != rd.Size || b.Half != rd.Half || b.Kind != rd.Kind || b.DataLen > rd.DataLen {
				// The address was reused by a structurally different
				// region; the capture marked it all-dirty, so rebuilding
				// from pages alone is lossless.
				b = nil
			}
		}
		var hash uint64
		known := false
		switch {
		case b != nil && b.DataLen == rd.DataLen && len(rd.Pages) == 0:
			// Untouched region: share the base's page table (both are
			// immutable image payloads) and reuse its digest.
			r.pages = b.pages
			if baseHashes {
				hash, known = base.RegionHashes[bi], true
			}
		case (b != nil && b.pages != nil) || len(rd.Pages) > 0:
			r.pages = make([]*page, pageCount(rd.DataLen))
			if b != nil {
				copy(r.pages, b.pages)
			}
			for _, p := range rd.Pages {
				start, end := pageExtent(p.Index, rd.DataLen)
				if uint64(p.Len) != end-start || (p.Data != nil && len(p.Data) != p.Len) {
					panic(fmt.Sprintf("memsim: delta page %d of region %q carries %d bytes (%d present), extent is %d",
						p.Index, rd.Name, p.Len, len(p.Data), end-start))
				}
				r.pages[p.Index] = nil
				if p.Data != nil {
					r.pages[p.Index] = pageOf(p.Data)
				}
			}
		}
		if !known {
			hash = r.contentHash()
		}
		out.Regions = append(out.Regions, r)
		out.RegionHashes = append(out.RegionHashes, hash)
	}
	return out
}
