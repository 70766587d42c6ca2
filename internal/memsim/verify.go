package memsim

import (
	"fmt"
	"slices"
)

// Verify recomputes every region's content digest — rehashing every
// present page as far as its buffer reaches; an absent page and the tail
// past a short buffer are zeros by construction — and compares it
// against the RegionHashes memo captured at commit time, returning the
// number of pages the regions' contents span and an error naming the
// first mismatching region. A snapshot without a hash memo cannot be
// verified — full images always carry one, so a missing memo is itself
// reported as unverifiable.
func (s *Snapshot) Verify() (pages int, err error) {
	if len(s.RegionHashes) != len(s.Regions) {
		return 0, fmt.Errorf("memsim: snapshot carries no region hash memo (%d hashes for %d regions)",
			len(s.RegionHashes), len(s.Regions))
	}
	for i := range s.Regions {
		r := &s.Regions[i]
		pages += pageCount(r.DataLen)
		if got := r.contentHash(); got != s.RegionHashes[i] {
			return pages, fmt.Errorf("memsim: region %q content hash %016x does not match recorded %016x",
				r.Name, got, s.RegionHashes[i])
		}
	}
	return pages, nil
}

// Verify recomputes every carried page's FNV-1a hash and compares it
// against the hash recorded at capture time, returning the number of pages
// rehashed and an error naming the first mismatching region and page.
func (d Delta) Verify() (pages int, err error) {
	for i := range d.Regions {
		rd := &d.Regions[i]
		for pi := range rd.Pages {
			p := &rd.Pages[pi]
			pages++
			if got := p.contentHash(); got != p.Hash {
				return pages, fmt.Errorf("memsim: region %q page %d hash %016x does not match recorded %016x",
					rd.Name, p.Index, got, p.Hash)
			}
		}
	}
	return pages, nil
}

// damaged returns a page holding a private copy of the prefix src (of a
// page at least one byte long; zeros when src is empty) with the first
// byte flipped. Image payloads share their pages with the live space and
// with each other, so damage always lands on a fresh buffer: it reaches
// the one image being corrupted and nothing else.
func damaged(src []byte) *page {
	p := newPage(max(len(src), 1))
	copy(p.b, src)
	p.b[0] ^= 0xFF
	return p
}

// CorruptSnapshot flips one byte at the start of each of the first n
// pages of the snapshot's contents, walking regions in order, and returns
// how many pages were actually damaged. A damaged page — present or not
// — is materialised as a private copy in a private page table, and
// s.Regions is replaced by a copy first: other snapshots may share its
// backing (Snapshot), and the damage must reach this one alone. It
// writes s.Regions, so s must be the caller's own header: a snapshot a
// capture returned is shared, and is copied before it is passed here. The
// RegionHashes memo is left untouched: the stale digests are exactly what
// Verify later trips over.
func CorruptSnapshot(s *Snapshot, n int) int {
	s.Regions = slices.Clone(s.Regions)
	done := 0
	for i := range s.Regions {
		if done >= n {
			break
		}
		r := &s.Regions[i]
		if r.DataLen == 0 {
			continue
		}
		pages := make([]*page, pageCount(r.DataLen))
		copy(pages, r.pages)
		for idx := 0; idx < len(pages) && done < n; idx++ {
			pages[idx] = damaged(pages[idx].buf())
			done++
		}
		r.pages = pages
	}
	return done
}

// CorruptDelta flips one byte at the start of each of the first n carried
// pages of the delta, walking regions and pages in order, and returns how
// many pages were actually damaged. The recorded page hashes are left
// stale for Verify to detect. It edits d's page lists in place, which is
// sound because only a delta that carries no page shares its region list
// (Delta), and such a delta has nothing to damage.
func CorruptDelta(d *Delta, n int) int {
	done := 0
	for ri := range d.Regions {
		rd := &d.Regions[ri]
		for pi := range rd.Pages {
			if done >= n {
				return done
			}
			p := &rd.Pages[pi]
			if p.Len == 0 {
				continue
			}
			p.Data = damaged(p.Data).b
			done++
		}
	}
	return done
}
