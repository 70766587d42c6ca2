package memsim

import (
	"bytes"
	"testing"
)

// mustWrite stores data at off in the region at addr the way a rank
// does, one WriteSpan per page the bytes reach, and fails the test on an
// error.
func mustWrite(t *testing.T, a *AddressSpace, addr, off uint64, data []byte) {
	t.Helper()
	for len(data) > 0 {
		n := min(PageSize-int(off%PageSize), len(data))
		b, err := a.WriteSpan(addr, off, uint64(n))
		if err != nil {
			t.Fatalf("WriteSpan(0x%x, %d, %d bytes): %v", addr, off, n, err)
		}
		copy(b, data[:n])
		data, off = data[n:], off+uint64(n)
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
	r := mmapWithData(a, "state", UpperHalf, KindData, make([]byte, 4*PageSize))
	a.CommitUpperHalf() // clear the newborn all-dirty bitmap
	if pages, _ := dirtyPagesAt(a, r.Addr); len(pages) != 0 {
		t.Fatalf("dirty pages after commit = %v, want none", pages)
	}
	// 8 bytes across the page-1/page-2 boundary.
	mustWrite(t, a, r.Addr, 2*PageSize-4, []byte("12345678"))
	pages, ok := dirtyPagesAt(a, r.Addr)
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
	state := mmapWithData(a, "app.state", UpperHalf, KindData, make([]byte, 8*PageSize))
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
	r := mmapWithData(a, "state", UpperHalf, KindData, bytes.Repeat([]byte{7}, 2*PageSize))
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
	r := mmapWithData(a, "state", UpperHalf, KindData, bytes.Repeat([]byte{5}, 2*PageSize))
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
