package memsim

import (
	"bytes"
	"testing"
)

// mustWrite is a test helper; it fails the test on write errors.
func mustWrite(t *testing.T, a *AddressSpace, addr, off uint64, data []byte) {
	t.Helper()
	if err := a.Write(addr, off, data); err != nil {
		t.Fatalf("Write(0x%x, %d, %d bytes): %v", addr, off, len(data), err)
	}
}

// deltaFor finds the RegionDelta for addr, failing if absent.
func deltaFor(t *testing.T, d Delta, addr uint64) RegionDelta {
	t.Helper()
	for _, rd := range d.Regions {
		if rd.Addr == addr {
			return rd
		}
	}
	t.Fatalf("delta has no region at 0x%x", addr)
	return RegionDelta{}
}

func TestWriteStraddlingTwoPagesMarksBoth(t *testing.T) {
	a := NewAddressSpace()
	r := a.MmapWithData("state", UpperHalf, KindData, make([]byte, 4*PageSize))
	a.CommitUpperHalf() // clear the newborn all-dirty bitmap
	if pages, _ := a.DirtyPages(r.Addr); len(pages) != 0 {
		t.Fatalf("dirty pages after commit = %v, want none", pages)
	}
	// 8 bytes across the page-1/page-2 boundary.
	mustWrite(t, a, r.Addr, 2*PageSize-4, []byte("12345678"))
	pages, ok := a.DirtyPages(r.Addr)
	if !ok {
		t.Fatal("region vanished")
	}
	if len(pages) != 2 || pages[0] != 1 || pages[1] != 2 {
		t.Errorf("dirty pages = %v, want [1 2] (write straddles the boundary)", pages)
	}
	d := a.CommitUpperHalfDelta()
	rd := deltaFor(t, d, r.Addr)
	if len(rd.Pages) != 2 || rd.Pages[0].Index != 1 || rd.Pages[1].Index != 2 {
		t.Errorf("delta pages = %+v, want indices 1 and 2", rd.Pages)
	}
	if d.DirtyPages != 2 || d.DirtyBytes != 2*PageSize {
		t.Errorf("dirty accounting = %d pages / %d bytes, want 2 / %d", d.DirtyPages, d.DirtyBytes, 2*PageSize)
	}
}

// TestDeltaOverlayBitIdenticalToFull is the core incremental-image
// property: materialising base+delta must reproduce, bit for bit, the
// full snapshot that would have been captured at the same instant —
// including data lengths and the fingerprint, whether or not the hash
// memo is used.
func TestDeltaOverlayBitIdenticalToFull(t *testing.T) {
	a := NewAddressSpace()
	state := a.MmapWithData("app.state", UpperHalf, KindData, make([]byte, 8*PageSize))
	a.Mmap("app.text", UpperHalf, KindText, 2<<20) // contentless region
	a.Mmap("libmpi.text", LowerHalf, KindText, 4<<20)
	base := a.CommitUpperHalf()

	mustWrite(t, a, state.Addr, 3*PageSize+17, []byte("incremental"))
	a.Sbrk(64 << 10) // newborn region since the base
	d := a.CommitUpperHalfDelta()

	got := ApplyDelta(base, d)
	want := a.SnapshotUpperHalf() // read-only: all regions clean post-commit
	if !got.Equal(want) {
		t.Fatalf("overlay differs from full snapshot:\n got %d regions\nwant %d regions", len(got.Regions), len(want.Regions))
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Errorf("overlay fingerprint %016x != full fingerprint %016x", got.Fingerprint(), want.Fingerprint())
	}
	// Cross-check the memoised fingerprint path against a recomputation.
	bare := *got
	bare.RegionHashes = nil
	if bare.Fingerprint() != got.Fingerprint() {
		t.Errorf("memoised fingerprint %016x != recomputed %016x", got.Fingerprint(), bare.Fingerprint())
	}
	// The delta must be proportional to dirty bytes, not the space: one
	// touched page plus metadata, nothing for the contentless regions.
	if d.PayloadBytes() != PageSize {
		t.Errorf("delta payload = %d bytes, want %d (exactly one dirty page)", d.PayloadBytes(), PageSize)
	}
	if d.FullBytes() <= 10*d.PayloadBytes() {
		t.Errorf("full equivalent %d bytes not >=10x delta payload %d", d.FullBytes(), d.PayloadBytes())
	}
}

func TestDeltaDedupsRewrittenIdenticalPages(t *testing.T) {
	a := NewAddressSpace()
	r := a.MmapWithData("state", UpperHalf, KindData, bytes.Repeat([]byte{7}, 2*PageSize))
	base := a.CommitUpperHalf()
	// Rewrite page 0 with its existing contents and page 1 with new ones.
	mustWrite(t, a, r.Addr, 0, bytes.Repeat([]byte{7}, PageSize))
	mustWrite(t, a, r.Addr, PageSize, bytes.Repeat([]byte{9}, PageSize))
	d := a.CommitUpperHalfDelta()
	rd := deltaFor(t, d, r.Addr)
	if len(rd.Pages) != 1 || rd.Pages[0].Index != 1 {
		t.Fatalf("delta pages = %+v, want only index 1 (page 0 dedups against the base)", rd.Pages)
	}
	if d.DirtyPages != 2 || d.DedupBytes != PageSize {
		t.Errorf("accounting = %d dirty pages, %d dedup bytes; want 2 and %d", d.DirtyPages, d.DedupBytes, PageSize)
	}
	// The deduped page must still restore correctly from the base.
	got := ApplyDelta(base, d)
	if data := flat(&got.Regions[0]); data[0] != 7 || data[PageSize] != 9 {
		t.Errorf("overlay contents wrong: page0[0]=%d page1[0]=%d, want 7 and 9", data[0], data[PageSize])
	}
}

func TestMunmapPartiallyDirtyRegionDroppedByOverlay(t *testing.T) {
	a := NewAddressSpace()
	keep := a.MmapWithData("keep", UpperHalf, KindData, make([]byte, 2*PageSize))
	gone := a.MmapWithData("gone", UpperHalf, KindData, make([]byte, 4*PageSize))
	base := a.CommitUpperHalf()

	// Dirty half the doomed region, then unmap it mid-epoch.
	mustWrite(t, a, gone.Addr, 0, []byte("doomed"))
	mustWrite(t, a, keep.Addr, PageSize, []byte("survivor"))
	if !a.Munmap(gone.Addr) {
		t.Fatal("Munmap failed")
	}
	d := a.CommitUpperHalfDelta()
	for _, rd := range d.Regions {
		if rd.Addr == gone.Addr {
			t.Fatal("unmapped region still present in the delta layout")
		}
	}
	got := ApplyDelta(base, d)
	if len(got.Regions) != 1 || got.Regions[0].Addr != keep.Addr {
		t.Fatalf("overlay regions = %d, want only the surviving region", len(got.Regions))
	}
	want := a.SnapshotUpperHalf()
	if !got.Equal(want) || got.Fingerprint() != want.Fingerprint() {
		t.Error("overlay after munmap differs from the live space")
	}
}

func TestSbrkShrinkThenRegrowAcrossPageBoundary(t *testing.T) {
	a := NewAddressSpace()
	a.MmapWithData("anchor", UpperHalf, KindData, make([]byte, PageSize))
	res := a.Sbrk(4 * PageSize)
	heap := res.Region
	mustWrite(t, a, heap.Addr, 0, []byte("heap-head"))
	base := a.CommitUpperHalf()

	// Shrink by a page and a half — a partial-page truncation — then
	// regrow across the boundary with fresh content.
	if released := a.SbrkShrink(PageSize + PageSize/2); released != PageSize+PageSize/2 {
		t.Fatalf("SbrkShrink released %d bytes, want %d", released, PageSize+PageSize/2)
	}
	if got, _ := a.Lookup(heap.Addr); got.Size != 4*PageSize-(PageSize+PageSize/2) {
		t.Fatalf("shrunk region size = %d", got.Size)
	}
	regrow := a.Sbrk(2 * PageSize)
	mustWrite(t, a, regrow.Region.Addr, PageSize-4, []byte("straddle"))

	d := a.CommitUpperHalfDelta()
	// The resized region's seal is invalid: its content must be carried
	// in full (no dedup against stale page offsets).
	rd := deltaFor(t, d, heap.Addr)
	if len(rd.Pages) == 0 {
		t.Error("resized region carried no pages; stale-seal deltas would corrupt the overlay")
	}
	got := ApplyDelta(base, d)
	want := a.SnapshotUpperHalf()
	if !got.Equal(want) {
		t.Fatal("overlay after shrink+regrow differs from the live space")
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Error("overlay fingerprint differs after shrink+regrow")
	}
}

func TestSbrkShrinkRemovesWholeRegions(t *testing.T) {
	a := NewAddressSpace()
	r1 := a.Sbrk(2 * PageSize).Region
	r2 := a.Sbrk(PageSize).Region
	if released := a.SbrkShrink(PageSize); released != PageSize {
		t.Fatalf("released %d, want %d", released, PageSize)
	}
	if _, ok := a.Lookup(r2.Addr); ok {
		t.Error("top heap region should have been removed entirely")
	}
	if _, ok := a.Lookup(r1.Addr); !ok {
		t.Error("lower heap region should have survived")
	}
}

func TestDeltaWithoutBasePanics(t *testing.T) {
	a := NewAddressSpace()
	a.Mmap("r", UpperHalf, KindData, PageSize)
	defer func() {
		if recover() == nil {
			t.Error("CommitUpperHalfDelta with no committed base did not panic")
		}
	}()
	a.CommitUpperHalfDelta()
}

// TestCommitAliasesCleanRegions pins the copy-on-write property at page
// granularity: consecutive commits of an unwritten region share every
// page, a write replaces only the page it touches, and live writes never
// reach captured snapshots.
func TestCommitAliasesCleanRegions(t *testing.T) {
	a := NewAddressSpace()
	r := a.MmapWithData("state", UpperHalf, KindData, bytes.Repeat([]byte{5}, 2*PageSize))
	s1 := a.CommitUpperHalf()
	s2 := a.CommitUpperHalf()
	if s1.Regions[0].pages[0] != s2.Regions[0].pages[0] {
		t.Error("clean region was re-copied: consecutive commits should share its pages")
	}
	mustWrite(t, a, r.Addr, 0, []byte{1})
	s3 := a.CommitUpperHalf()
	if s3.Regions[0].pages[0] == s2.Regions[0].pages[0] {
		t.Error("written page still shared with the old commit: the stored image would see live writes")
	}
	if s3.Regions[0].pages[1] != s2.Regions[0].pages[1] {
		t.Error("untouched page of a written region was copied")
	}
	if flat(&s2.Regions[0])[0] != 5 {
		t.Error("write leaked into the previously committed snapshot")
	}
	if flat(&s3.Regions[0])[0] != 1 {
		t.Error("new commit missed the write")
	}
}

func TestGenerationCounts(t *testing.T) {
	a := NewAddressSpace()
	a.Mmap("r", UpperHalf, KindData, PageSize)
	if a.Generation() != 0 {
		t.Fatalf("fresh space generation = %d, want 0", a.Generation())
	}
	snap := a.CommitUpperHalf()
	if a.Generation() != 1 {
		t.Fatalf("generation after commit = %d, want 1", a.Generation())
	}
	a.CommitUpperHalfDelta()
	if a.Generation() != 2 {
		t.Fatalf("generation after delta = %d, want 2", a.Generation())
	}
	// Read-only snapshots never commit.
	a.SnapshotUpperHalf()
	if a.Generation() != 2 {
		t.Errorf("SnapshotUpperHalf advanced the generation")
	}
	b := NewAddressSpace()
	b.CommitUpperHalf()
	b.RestoreUpperHalf(snap)
	if b.Generation() != 0 {
		t.Errorf("restored space generation = %d, want 0 (restart starts a new chain)", b.Generation())
	}
}
