package memsim

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestHalfAndKindStrings(t *testing.T) {
	if UpperHalf.String() != "upper" || LowerHalf.String() != "lower" {
		t.Errorf("half names wrong: %q %q", UpperHalf, LowerHalf)
	}
	if Half(9).String() != "invalid" {
		t.Errorf("invalid half should stringify as invalid")
	}
	if KindText.String() != "text" || KindSharedMem.String() != "shm" {
		t.Errorf("kind names wrong")
	}
	if Kind(99).String() != "unknown" {
		t.Errorf("unknown kind should stringify as unknown")
	}
}

func TestMmapAllocatesDisjointHalves(t *testing.T) {
	a := NewAddressSpace()
	up := a.Mmap("app.text", UpperHalf, KindText, 1<<20)
	low := a.Mmap("libmpi.text", LowerHalf, KindText, 1<<20)
	if up.Half != UpperHalf || low.Half != LowerHalf {
		t.Fatalf("halves not recorded")
	}
	if up.Addr == low.Addr {
		t.Errorf("upper and lower regions share an address")
	}
	if up.End() > low.Addr && low.End() > up.Addr {
		t.Errorf("upper and lower regions overlap: %+v %+v", up, low)
	}
}

func TestMmapAlignsSizes(t *testing.T) {
	a := NewAddressSpace()
	r := a.Mmap("odd", UpperHalf, KindAnonymous, 100)
	if r.Size%4096 != 0 {
		t.Errorf("size %d not page aligned", r.Size)
	}
	if r.Size < 100 {
		t.Errorf("size %d smaller than request", r.Size)
	}
}

func TestMmapInvalidHalfPanics(t *testing.T) {
	a := NewAddressSpace()
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic for invalid half")
		}
	}()
	a.Mmap("bad", Half(7), KindText, 10)
}

func TestMunmap(t *testing.T) {
	a := NewAddressSpace()
	r := a.Mmap("tmp", UpperHalf, KindAnonymous, 4096)
	if !a.Munmap(r.Addr) {
		t.Fatalf("Munmap failed for existing region")
	}
	if a.Munmap(r.Addr) {
		t.Errorf("Munmap succeeded for already-removed region")
	}
	if _, ok := a.Lookup(r.Addr); ok {
		t.Errorf("region still visible after Munmap")
	}
}

func TestUnmapHalfDiscardsOnlyThatHalf(t *testing.T) {
	a := NewAddressSpace()
	a.Mmap("app.data", UpperHalf, KindData, 8192)
	a.Mmap("libmpi.text", LowerHalf, KindText, 26<<20)
	a.Mmap("driver.shm", LowerHalf, KindSharedMem, 2<<20)
	released := a.UnmapHalf(LowerHalf)
	if released == 0 {
		t.Fatalf("UnmapHalf released nothing")
	}
	if got := a.BytesOf(LowerHalf); got != 0 {
		t.Errorf("lower half still has %d bytes", got)
	}
	if got := a.BytesOf(UpperHalf); got == 0 {
		t.Errorf("upper half was discarded too")
	}
}

func TestBytesOfKind(t *testing.T) {
	a := NewAddressSpace()
	a.Mmap("libmpi.text", LowerHalf, KindText, 26<<20)
	a.Mmap("driver.shm", LowerHalf, KindSharedMem, 40<<20)
	if got := a.BytesOfKind(LowerHalf, KindSharedMem); got != 40<<20 {
		t.Errorf("BytesOfKind shm = %d", got)
	}
	if got := a.BytesOfKind(LowerHalf, KindText); got != 26<<20 {
		t.Errorf("BytesOfKind text = %d", got)
	}
	if got := a.BytesOfKind(UpperHalf, KindText); got != 0 {
		t.Errorf("BytesOfKind upper text = %d, want 0", got)
	}
}

func TestSbrkInterposedUsesMmap(t *testing.T) {
	a := NewAddressSpace()
	res := a.Sbrk(64 << 10)
	if !res.UsedMmap {
		t.Errorf("interposed sbrk should use mmap")
	}
	if res.CorruptedLowerHalf {
		t.Errorf("interposed sbrk corrupted lower half")
	}
	if res.Region.Half != UpperHalf {
		t.Errorf("interposed sbrk allocated in %v", res.Region.Half)
	}
}

func TestSbrkHazardAfterRestartWithoutInterposition(t *testing.T) {
	a := NewAddressSpace()
	a.SetSbrkInterposition(false)
	a.MarkPostRestart()
	res := a.Sbrk(4096)
	if !res.CorruptedLowerHalf {
		t.Errorf("expected the §2.1 hazard: sbrk after restart without interposition must grow the lower half")
	}
	if res.Region.Half != LowerHalf {
		t.Errorf("hazardous sbrk allocated in %v", res.Region.Half)
	}
}

func TestSbrkBeforeCheckpointWithoutInterposition(t *testing.T) {
	a := NewAddressSpace()
	a.SetSbrkInterposition(false)
	res := a.Sbrk(4096)
	if res.CorruptedLowerHalf {
		t.Errorf("pre-checkpoint sbrk should be harmless")
	}
	if res.Region.Half != UpperHalf {
		t.Errorf("pre-checkpoint sbrk allocated in %v", res.Region.Half)
	}
}

func TestSbrkInterpositionFlag(t *testing.T) {
	a := NewAddressSpace()
	if !a.SbrkInterposed() {
		t.Errorf("interposition should default to on")
	}
	a.SetSbrkInterposition(false)
	if a.SbrkInterposed() {
		t.Errorf("SetSbrkInterposition(false) had no effect")
	}
}

func TestWriteAndRead(t *testing.T) {
	a := NewAddressSpace()
	r := a.Mmap("state", UpperHalf, KindHeap, 4096)
	payload := []byte("lattice energies")
	if err := a.Write(r.Addr, 100, payload); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := a.Read(r.Addr, 100, uint64(len(payload)))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if string(got) != string(payload) {
		t.Errorf("Read = %q, want %q", got, payload)
	}
	// Unwritten parts read as zero.
	zeros, err := a.Read(r.Addr, 0, 10)
	if err != nil {
		t.Fatalf("Read zeros: %v", err)
	}
	for _, b := range zeros {
		if b != 0 {
			t.Errorf("unwritten bytes not zero: %v", zeros)
			break
		}
	}
}

func TestWriteReadErrors(t *testing.T) {
	a := NewAddressSpace()
	r := a.Mmap("small", UpperHalf, KindHeap, 4096)
	if err := a.Write(r.Addr, 4090, make([]byte, 100)); err == nil {
		t.Errorf("overflowing write did not error")
	}
	if err := a.Write(0xdead, 0, []byte("x")); err == nil {
		t.Errorf("write to unmapped region did not error")
	}
	if _, err := a.Read(r.Addr, 4095, 100); err == nil {
		t.Errorf("overflowing read did not error")
	}
	if _, err := a.Read(0xdead, 0, 1); err == nil {
		t.Errorf("read from unmapped region did not error")
	}
}

// TestWriteReadBoundsDoNotWrap holds the bounds checks at the two places
// offset+length can mislead: around the region's size and around 2^64,
// where the sum wraps to a small number. (Write at offset 2^64-4 of eight
// bytes used to pass the check and die indexing the page table.)
func TestWriteReadBoundsDoNotWrap(t *testing.T) {
	a := NewAddressSpace()
	r := a.Mmap("small", UpperHalf, KindHeap, 2*PageSize)
	const top = ^uint64(0)
	for _, tc := range []struct {
		off, n uint64
		ok     bool
	}{
		{0, 0, true},
		{0, r.Size, true},
		{r.Size - 8, 8, true},
		{r.Size, 0, true},
		{r.Size - 7, 8, false},
		{r.Size, 1, false},
		{r.Size + 1, 0, false},
		{0, r.Size + 1, false},
		{top - 3, 8, false},
		{top, 1, false},
		{top, 0, false},
		{top - r.Size + 1, r.Size, false},
		{1 << 63, 8, false},
	} {
		werr := a.Write(r.Addr, tc.off, make([]byte, tc.n))
		_, rerr := a.Read(r.Addr, tc.off, tc.n)
		if (werr == nil) != tc.ok || (rerr == nil) != tc.ok {
			t.Errorf("offset %d length %d: Write %v, Read %v; want ok=%v", tc.off, tc.n, werr, rerr, tc.ok)
		}
		for _, err := range []error{werr, rerr} {
			if err != nil && !strings.Contains(err.Error(), `overflows region "small"`) {
				t.Errorf("offset %d length %d: error %q does not name the overflow", tc.off, tc.n, err)
			}
		}
	}
	if _, err := a.Read(r.Addr, 0, top); err == nil {
		t.Error("a read of 2^64-1 bytes did not error")
	}
}

func TestSnapshotContainsOnlyUpperHalf(t *testing.T) {
	a := NewAddressSpace()
	a.MmapWithData("app.data", UpperHalf, KindData, []byte{1, 2, 3, 4})
	a.Mmap("app.heap", UpperHalf, KindHeap, 1<<20)
	a.Mmap("libmpi.text", LowerHalf, KindText, 26<<20)
	a.Mmap("aries.pinned", LowerHalf, KindPinned, 8<<20)
	snap := a.SnapshotUpperHalf()
	for _, r := range snap.Regions {
		if r.Half != UpperHalf {
			t.Errorf("snapshot contains lower-half region %q", r.Name)
		}
	}
	if snap.TotalBytes() >= a.BytesOf(UpperHalf)+a.BytesOf(LowerHalf) {
		t.Errorf("snapshot did not exclude the lower half")
	}
	if snap.TotalBytes() != a.BytesOf(UpperHalf) {
		t.Errorf("snapshot bytes %d != upper-half bytes %d", snap.TotalBytes(), a.BytesOf(UpperHalf))
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	a := NewAddressSpace()
	a.MmapWithData("app.data", UpperHalf, KindData, []byte("initial state vector"))
	heap := a.Mmap("app.heap", UpperHalf, KindHeap, 8192)
	if err := a.Write(heap.Addr, 0, []byte("heap contents")); err != nil {
		t.Fatal(err)
	}
	a.Mmap("libmpi.text", LowerHalf, KindText, 26<<20)
	snap := a.SnapshotUpperHalf()

	// Simulate restart: a fresh address space with a new lower half (new
	// MPI library), then restore the upper half.
	b := NewAddressSpace()
	b.Mmap("openmpi.text", LowerHalf, KindText, 30<<20)
	b.RestoreUpperHalf(snap)

	snap2 := b.SnapshotUpperHalf()
	if !snap.Equal(snap2) {
		t.Fatalf("restore round trip lost data")
	}
	if !b.PostRestart() {
		t.Errorf("restored space not marked post-restart")
	}
	// The new lower half must survive restore.
	if b.BytesOf(LowerHalf) != 30<<20 {
		t.Errorf("restore damaged the new lower half: %d bytes", b.BytesOf(LowerHalf))
	}
	// Subsequent allocations must not collide with restored regions.
	r := b.Mmap("post-restart-alloc", UpperHalf, KindHeap, 4096)
	for _, existing := range snap.Regions {
		if r.Addr < existing.End() && existing.Addr < r.End() {
			t.Errorf("post-restart allocation overlaps restored region %q", existing.Name)
		}
	}
}

func TestSnapshotEqualDetectsDifferences(t *testing.T) {
	a := NewAddressSpace()
	a.MmapWithData("d", UpperHalf, KindData, []byte{1, 2, 3})
	s1 := a.SnapshotUpperHalf()
	s2 := a.SnapshotUpperHalf()
	if !s1.Equal(s2) {
		t.Fatalf("identical snapshots compare unequal")
	}
	// Mutate and re-snapshot.
	r := s1.Regions[0]
	if err := a.Write(r.Addr, 0, []byte{9}); err != nil {
		t.Fatal(err)
	}
	s3 := a.SnapshotUpperHalf()
	if s1.Equal(s3) {
		t.Errorf("snapshots with different contents compare equal")
	}
}

func TestRegionsSorted(t *testing.T) {
	a := NewAddressSpace()
	for i := 0; i < 10; i++ {
		a.Mmap("r", UpperHalf, KindAnonymous, 4096)
	}
	regs := a.Regions()
	for i := 1; i < len(regs); i++ {
		if regs[i].Addr <= regs[i-1].Addr {
			t.Fatalf("regions not sorted by address")
		}
	}
}

func TestRegionsOfFiltersHalf(t *testing.T) {
	a := NewAddressSpace()
	a.Mmap("u1", UpperHalf, KindData, 4096)
	a.Mmap("l1", LowerHalf, KindText, 4096)
	a.Mmap("u2", UpperHalf, KindHeap, 4096)
	upper := a.RegionsOf(UpperHalf)
	if len(upper) != 2 {
		t.Errorf("RegionsOf(UpperHalf) = %d regions, want 2", len(upper))
	}
	lower := a.RegionsOf(LowerHalf)
	if len(lower) != 1 {
		t.Errorf("RegionsOf(LowerHalf) = %d regions, want 1", len(lower))
	}
}

// Property: for any set of allocations split across halves, snapshot size
// equals the sum of upper-half allocations (rounded to pages), and restoring
// into a fresh space reproduces an equal snapshot.
func TestPropertySnapshotRoundTrip(t *testing.T) {
	f := func(sizes []uint16, lowerMask uint8) bool {
		a := NewAddressSpace()
		for i, s := range sizes {
			if len(sizes) > 24 && i >= 24 {
				break
			}
			half := UpperHalf
			if (lowerMask>>(uint(i)%8))&1 == 1 {
				half = LowerHalf
			}
			a.Mmap("r", half, KindAnonymous, uint64(s)+1)
		}
		snap := a.SnapshotUpperHalf()
		if snap.TotalBytes() != a.BytesOf(UpperHalf) {
			return false
		}
		b := NewAddressSpace()
		b.RestoreUpperHalf(snap)
		return snap.Equal(b.SnapshotUpperHalf())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: data written into a region is returned intact by Read at the
// same offset.
func TestPropertyWriteReadRoundTrip(t *testing.T) {
	f := func(payload []byte, offsetRaw uint16) bool {
		if len(payload) == 0 {
			return true
		}
		a := NewAddressSpace()
		r := a.Mmap("buf", UpperHalf, KindHeap, 1<<17)
		offset := uint64(offsetRaw) % (r.Size - uint64(len(payload)))
		if err := a.Write(r.Addr, offset, payload); err != nil {
			return false
		}
		got, err := a.Read(r.Addr, offset, uint64(len(payload)))
		if err != nil {
			return false
		}
		for i := range payload {
			if got[i] != payload[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSnapshotFingerprintTracksEqual(t *testing.T) {
	a := NewAddressSpace()
	a.MmapWithData("app.state", UpperHalf, KindData, []byte{1, 2, 3})
	a.Mmap("libmpi.so", LowerHalf, KindText, 4096)
	s1 := a.SnapshotUpperHalf()
	s2 := a.SnapshotUpperHalf()
	if s1.Fingerprint() != s2.Fingerprint() {
		t.Error("identical snapshots must fingerprint identically")
	}
	if err := a.Write(s1.Regions[0].Addr, 0, []byte{9}); err != nil {
		t.Fatal(err)
	}
	s3 := a.SnapshotUpperHalf()
	if s1.Fingerprint() == s3.Fingerprint() {
		t.Error("content change must change the fingerprint")
	}
	if s1.Equal(s3) {
		t.Error("Equal must agree with the fingerprint")
	}
}

func TestSnapshotIsolatedFromLiveSpace(t *testing.T) {
	a := NewAddressSpace()
	r := a.MmapWithData("app.state", UpperHalf, KindData, []byte{1, 2, 3, 4})
	snap := a.SnapshotUpperHalf()
	fp := snap.Fingerprint()
	// Snapshots are isolated in both directions although pages are
	// shared: a write to the live space must not reach a stored image, and
	// a write to a restored space must not reach the image it came from —
	// each copies the shared page first.
	if err := a.Write(r.Addr, 0, []byte{42}); err != nil {
		t.Fatal(err)
	}
	if flat(&snap.Regions[0])[0] == 42 || snap.Fingerprint() != fp {
		t.Error("mutating the live space leaked into a stored snapshot")
	}
	b := NewAddressSpace()
	b.RestoreUpperHalf(snap)
	if err := b.Write(snap.Regions[0].Addr, 0, []byte{99}); err != nil {
		t.Fatal(err)
	}
	if flat(&snap.Regions[0])[0] == 99 || snap.Fingerprint() != fp {
		t.Error("writing a restored space leaked into the image it came from")
	}
}

// TestWriteAfterRegionLeaves pins the one thing Write's last-region cache
// must never do: resolve an address to a region that has left the space.
// After each way a region can leave, a write to its address fails exactly
// as it would have without the cache, or lands in the region that now
// owns the address.
func TestWriteAfterRegionLeaves(t *testing.T) {
	unmapped := func(t *testing.T, a *AddressSpace, addr uint64) {
		t.Helper()
		err := a.Write(addr, 0, []byte{1})
		if want := fmt.Sprintf("memsim: write to unmapped region 0x%x", addr); err == nil || err.Error() != want {
			t.Fatalf("write to a departed region: %v, want %q", err, want)
		}
	}
	warm := func(t *testing.T, a *AddressSpace, addr uint64) {
		t.Helper()
		if err := a.Write(addr, 0, []byte{0xaa}); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("Munmap", func(t *testing.T) {
		a := NewAddressSpace()
		r := a.Mmap("x", UpperHalf, KindData, PageSize)
		warm(t, a, r.Addr)
		a.Munmap(r.Addr)
		unmapped(t, a, r.Addr)
	})
	t.Run("UnmapHalf", func(t *testing.T) {
		a := NewAddressSpace()
		r := a.Mmap("x", LowerHalf, KindData, PageSize)
		warm(t, a, r.Addr)
		a.UnmapHalf(LowerHalf)
		unmapped(t, a, r.Addr)
	})
	t.Run("SbrkShrink", func(t *testing.T) {
		a := NewAddressSpace()
		r := a.Sbrk(PageSize).Region
		warm(t, a, r.Addr)
		a.SbrkShrink(PageSize)
		unmapped(t, a, r.Addr)
	})
	t.Run("Release", func(t *testing.T) {
		a := NewAddressSpacePooled(NewPool())
		r := a.Mmap("x", UpperHalf, KindData, PageSize)
		warm(t, a, r.Addr)
		a.Release()
		unmapped(t, a, r.Addr)
	})
	t.Run("RestoreUpperHalf", func(t *testing.T) {
		a := NewAddressSpace()
		r := a.Mmap("x", UpperHalf, KindData, PageSize)
		snap := a.CommitUpperHalf() // x is empty in the image
		warm(t, a, r.Addr)
		a.RestoreUpperHalf(snap)
		// Same address, new region record: the write must reach it.
		if err := a.Write(r.Addr, 1, []byte{0xbb}); err != nil {
			t.Fatal(err)
		}
		got, err := a.Read(r.Addr, 0, 2)
		if err != nil || got[0] != 0 || got[1] != 0xbb {
			t.Fatalf("after restore the region reads % x (%v), want 00 bb: the write went to the region it replaced", got, err)
		}
	})
}
