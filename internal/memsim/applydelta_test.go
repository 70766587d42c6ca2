package memsim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// applyDeltaByMap is ApplyDelta as it was before it walked the two
// address-sorted region lists together: base regions are found through a
// map[uint64]int built per call. Kept as the reference for the join.
func applyDeltaByMap(base Snapshot, d Delta) Snapshot {
	baseIdx := make(map[uint64]int, len(base.Regions))
	for i := range base.Regions {
		baseIdx[base.Regions[i].Addr] = i
	}
	baseHashes := len(base.RegionHashes) == len(base.Regions)
	out := Snapshot{Brk: d.Brk}
	for _, rd := range d.Regions {
		r := Region{Name: rd.Name, Half: rd.Half, Kind: rd.Kind, Addr: rd.Addr, Size: rd.Size, DataLen: rd.DataLen}
		var b *Region
		bi, ok := baseIdx[rd.Addr]
		if ok {
			b = &base.Regions[bi]
			if b.Name != rd.Name || b.Size != rd.Size || b.Half != rd.Half || b.Kind != rd.Kind || b.DataLen > rd.DataLen {
				b = nil
			}
		}
		var hash uint64
		known := false
		switch {
		case b != nil && b.DataLen == rd.DataLen && len(rd.Pages) == 0:
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
				r.pages[p.Index] = nil
				if p.Data != nil {
					r.pages[p.Index] = &page{b: p.Data}
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

// TestApplyDeltaJoinVsMap drives a space through random region creation,
// writes, heap growth, partial and whole shrinks and unmaps, commits a
// chain of deltas, and requires the merge join to materialise every link
// exactly as the map-based join does — and both as the live space reads.
func TestApplyDeltaJoinVsMap(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := NewAddressSpace()
		var addrs []uint64
		mutate := func() {
			for n := 1 + rng.Intn(8); n > 0; n-- {
				switch op := rng.Intn(10); {
				case op < 2 || len(addrs) == 0:
					r := a.Mmap(fmt.Sprint("r", rng.Intn(4)), UpperHalf, Kind(rng.Intn(4)), uint64(1+rng.Intn(6*PageSize)))
					if rng.Intn(2) == 0 {
						r = a.MmapZero("z", UpperHalf, KindData, uint64(1+rng.Intn(4*PageSize)))
					}
					addrs = append(addrs, r.Addr)
				case op < 6:
					addr := addrs[rng.Intn(len(addrs))]
					if r, ok := a.Lookup(addr); ok {
						buf := make([]byte, min(1+rng.Intn(24), int(r.Size))) // a shrink can leave a few bytes
						rng.Read(buf)
						if rng.Intn(4) == 0 {
							clear(buf) // dirties without changing: dedup
						}
						if err := a.Write(addr, uint64(rng.Intn(int(r.Size)-len(buf)+1)), buf); err != nil {
							t.Fatal(err)
						}
					}
				case op < 7:
					addrs = append(addrs, a.Sbrk(uint64(1+rng.Intn(5*PageSize))).Region.Addr)
				case op < 8:
					a.SbrkShrink(uint64(1 + rng.Intn(6*PageSize))) // resizes one heap region, removes others
				default:
					i := rng.Intn(len(addrs))
					a.Munmap(addrs[i])
					addrs = slices.Delete(addrs, i, i+1)
				}
			}
		}
		mutate()
		base := a.CommitUpperHalf()
		for link := 0; link < 6; link++ {
			mutate()
			d := a.CommitUpperHalfDelta()
			got, want := ApplyDelta(base, d), applyDeltaByMap(base, d)
			live := a.SnapshotUpperHalf()
			what := fmt.Sprintf("seed %d link %d", seed, link)
			if !got.Equal(want) || !got.Equal(live) {
				t.Fatalf("%s: merge join materialises different contents (equal to map join %v, to live space %v)",
					what, got.Equal(want), got.Equal(live))
			}
			if !slices.Equal(got.RegionHashes, want.RegionHashes) || !slices.Equal(got.RegionHashes, live.RegionHashes) {
				t.Fatalf("%s: region hashes %x, map join %x, live %x", what, got.RegionHashes, want.RegionHashes, live.RegionHashes)
			}
			if got.Fingerprint() != want.Fingerprint() || got.Fingerprint() != a.Fingerprint() {
				t.Fatalf("%s: fingerprint %016x, map join %016x, live %016x", what, got.Fingerprint(), want.Fingerprint(), a.Fingerprint())
			}
			if pages, err := got.Verify(); err != nil {
				t.Fatalf("%s: materialised snapshot fails verification after %d pages: %v", what, pages, err)
			}
			base = got
		}
	}
}

// TestApplyDeltaRejectsUnsortedDelta: the join relies on address order,
// so a delta out of order must not be materialised silently.
func TestApplyDeltaRejectsUnsortedDelta(t *testing.T) {
	a := NewAddressSpace()
	a.MmapZero("x", UpperHalf, KindData, PageSize)
	a.MmapZero("y", UpperHalf, KindData, PageSize)
	base := a.CommitUpperHalf()
	d := a.CommitUpperHalfDelta()
	slices.Reverse(d.Regions)
	defer func() {
		if recover() == nil {
			t.Error("ApplyDelta accepted a delta whose regions descend by address")
		}
	}()
	ApplyDelta(base, d)
}
