package memsim

import (
	"fmt"
	"math/bits"

	"mana/internal/fnv1a"
)

// PageDelta is one dirty page carried by an incremental snapshot.
type PageDelta struct {
	// Index is the page's index within its region (offset Index*PageSize).
	Index int
	// Hash is the FNV-1a digest of the page's contents, used for the
	// checkpoint fingerprint and for cross-generation dedup accounting.
	Hash uint64
	// Len is the page's content length: PageSize, or less for the last
	// page of a region whose data length is not page-aligned. It is what
	// the page counts for — payload, dirty and stored bytes.
	Len int
	// Data is the written prefix of those Len bytes — a frozen page buffer
	// shared with the live space, never written through. It may be
	// shorter than Len, and is nil for a page nothing has been written
	// to: the bytes from len(Data) to Len are zeros, carried without being
	// materialised.
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
//
// Like a Snapshot, a delta is a read-only payload whose Regions may be
// shared: back-to-back commits of an unchanged space return one region
// list. Only a list that carries no page is shared, so CorruptDelta,
// which damages carried pages alone, never reaches another image.
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

// contentHash digests the page's Len content bytes: the prefix it
// carries, then the zeros it implies.
func (p *PageDelta) contentHash() uint64 {
	return uint64(fnv1a.Offset.Bytes(p.Data).Zeros(uint64(p.Len - len(p.Data))))
}

// PayloadBytes returns the page content bytes the delta carries — the
// quantity an incremental image write is charged for.
func (d Delta) PayloadBytes() uint64 {
	var total uint64
	for i := range d.Regions {
		pages := d.Regions[i].Pages
		for pi := range pages {
			total += uint64(pages[pi].Len)
		}
	}
	return total
}

// FullBytes returns what a full snapshot of the same layout would have
// carried (the sum of region sizes), for full-vs-incremental reporting.
func (d Delta) FullBytes() uint64 {
	var total uint64
	for i := range d.Regions {
		total += d.Regions[i].Size
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
// A space that has not changed since its last commit (see
// CommitUpperHalf) returns the page-less region list a delta of it built
// before, shared, with the counters a fresh capture would report.
//
// The call panics if no generation has been committed yet: the first
// capture of a space must be a full CommitUpperHalf.
func (a *AddressSpace) CommitUpperHalfDelta() Delta {
	if a.gen == 0 {
		panic("memsim: incremental capture with no committed base generation")
	}
	same := a.unchanged()
	if same && a.last.regions != nil {
		d := Delta{BaseGen: a.gen, Brk: a.brk, Regions: a.last.regions, ScannedPages: a.last.scanned}
		a.gen++
		return d
	}
	upper := a.regions[UpperHalf]
	d := Delta{BaseGen: a.gen, Brk: a.brk, Regions: make([]RegionDelta, len(upper))}
	for i := range upper {
		r, rd := &upper[i], &d.Regions[i]
		rd.Name, rd.Half, rd.Kind = r.desc.Name, r.desc.Half, r.desc.Kind
		rd.Addr, rd.Size, rd.DataLen = r.desc.Addr, r.desc.Size, r.dataLen()
		d.ScannedPages += pageCount(rd.Size)
		// Only dirty pages inside the contents can be carried; a clean
		// region — the common one — allocates and visits nothing.
		pages := r.pages()
		base, baseLen := r.committed()
		// carry accounts for dirty page idx and, unless its contents equal
		// the committed generation's, appends it to rd; left is how many
		// dirty pages of the region remain, this one included.
		carry := func(idx, left int) {
			start, end := pageExtent(idx, rd.DataLen)
			n := end - start
			cur := pageAt(pages, idx)
			d.DirtyPages++
			d.DirtyBytes += n
			if end <= baseLen && samePage(cur, pageAt(base, idx), n) {
				d.DedupBytes += n
				return
			}
			pd := PageDelta{Index: idx, Len: int(n), Data: cur.prefix(n)}
			pd.Hash = pd.contentHash()
			if rd.Pages == nil {
				rd.Pages = make([]PageDelta, 0, left)
			}
			rd.Pages = append(rd.Pages, pd)
		}
		within := pageCount(rd.DataLen)
		switch {
		case r.allDirty:
			for idx := 0; idx < within; idx++ {
				carry(idx, within-idx)
			}
		case r.mut != nil:
			dirty := r.mut.dirty
			left := dirty.countBelow(within)
			for w := 0; left > 0; w++ {
				for word := dirty[w]; word != 0 && left > 0; word &= word - 1 {
					carry(w*64+bits.TrailingZeros64(word), left)
					left--
				}
			}
		}
		// The content-hash memo of a dirty region stays invalidated:
		// deltas never need the region digest, and recomputing it here
		// would put a hash of every present page back on the O(dirty)
		// capture path. The next Fingerprint refreshes it lazily.
		r.rebase()
	}
	switch {
	case same:
		a.last.regions, a.last.scanned = d.Regions, d.ScannedPages
	case d.DirtyBytes == d.DedupBytes: // no page carried
		a.last = &lastCommit{brk: a.brk, regions: d.Regions, scanned: d.ScannedPages}
	default:
		a.last = nil
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
// shares page buffers with both inputs; none is copied.
//
// Both region lists ascend by address — every capture and every
// ApplyDelta produces them so — and are joined by walking them together.
// A delta out of that order is a bug and panics, which also keeps the
// result a valid base for the next link of a chain.
//
// A delta that carries no page over base's very layout and program break
// changes nothing: the result is base itself, not a copy (snapshots are
// read-only, see Snapshot).
func ApplyDelta(base *Snapshot, d Delta) *Snapshot {
	baseHashes := len(base.RegionHashes) == len(base.Regions)
	if baseHashes && changesNothing(base, &d) {
		return base
	}
	out := newSnapshot(d.Brk, len(d.Regions))
	bi := 0 // the first base region not below the current delta region
	for i := range d.Regions {
		rd := &d.Regions[i]
		if i > 0 && rd.Addr <= d.Regions[i-1].Addr {
			panic(fmt.Sprintf("memsim: delta region %q at 0x%x is out of address order", rd.Name, rd.Addr))
		}
		r := &out.Regions[i]
		r.Name, r.Half, r.Kind = rd.Name, rd.Half, rd.Kind
		r.Addr, r.Size, r.DataLen = rd.Addr, rd.Size, rd.DataLen
		for bi < len(base.Regions) && base.Regions[bi].Addr < rd.Addr {
			bi++
		}
		var b *Region
		if bi < len(base.Regions) && base.Regions[bi].Addr == rd.Addr {
			b = &base.Regions[bi]
			if b.Name != rd.Name || b.Size != rd.Size || b.Half != rd.Half || b.Kind != rd.Kind || b.DataLen > rd.DataLen {
				// The address was reused by a structurally different
				// region; the capture marked it all-dirty, so rebuilding
				// from pages alone is lossless.
				b = nil
			}
		}
		switch {
		case b != nil && b.DataLen == rd.DataLen && len(rd.Pages) == 0:
			// Untouched region: share the base's page table (both are
			// immutable image payloads) and reuse its digest.
			r.pages = b.pages
			if baseHashes {
				out.RegionHashes[i] = base.RegionHashes[bi]
				continue
			}
		case (b != nil && b.pages != nil) || len(rd.Pages) > 0:
			r.pages = make([]*page, pageCount(rd.DataLen))
			if b != nil {
				copy(r.pages, b.pages)
			}
			// The carried prefixes become the pages as they are — frozen,
			// like everything an image holds — behind headers cut from one
			// allocation.
			carried := make([]page, len(rd.Pages))
			for pi := range rd.Pages {
				p := &rd.Pages[pi]
				start, end := pageExtent(p.Index, rd.DataLen)
				if uint64(p.Len) != end-start || len(p.Data) > p.Len {
					panic(fmt.Sprintf("memsim: delta page %d of region %q carries %d bytes (%d present), extent is %d",
						p.Index, rd.Name, p.Len, len(p.Data), end-start))
				}
				r.pages[p.Index] = nil
				if p.Data != nil {
					carried[pi].b = p.Data
					r.pages[p.Index] = &carried[pi]
				}
			}
		}
		out.RegionHashes[i] = r.contentHash()
	}
	return out
}

// changesNothing reports whether d, overlaid on base, would rebuild base
// exactly: the same program break and regions, and no page carried.
func changesNothing(base *Snapshot, d *Delta) bool {
	if d.Brk != base.Brk || len(d.Regions) != len(base.Regions) {
		return false
	}
	for i := range d.Regions {
		rd, b := &d.Regions[i], &base.Regions[i]
		if len(rd.Pages) > 0 || rd.Addr != b.Addr || rd.Size != b.Size || rd.DataLen != b.DataLen ||
			rd.Half != b.Half || rd.Kind != b.Kind || rd.Name != b.Name {
			return false
		}
	}
	return true
}
