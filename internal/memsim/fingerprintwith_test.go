package memsim

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// TestFingerprintWithMatchesWrite: FingerprintWith(addr, prefix) equals
// the Fingerprint of a twin space after prefix was written at offset 0
// of that region, for a contentless region, a zero-filled one, one with
// short, absent and frozen pages, a prefix ending inside, at and past the
// written extent, and a lower-half region. The space it reads keeps its
// page table, pages, dirty bits and memo (the overlaid hash is not
// memoised), and the call allocates nothing.
func TestFingerprintWithMatchesWrite(t *testing.T) {
	const size = 5*PageSize + 300
	// build maps four upper regions and a lower one, writes scattered
	// bytes into the third (committing midway, so some pages are frozen)
	// and returns the space with the addresses in mapping order.
	build := func() (*AddressSpace, []uint64) {
		rng := rand.New(rand.NewSource(3))
		a := NewAddressSpace()
		addrs := []uint64{
			a.Mmap("text", UpperHalf, KindText, size).Addr,
			a.MmapZero("state", UpperHalf, KindData, size).Addr,
			a.MmapZero("heap", UpperHalf, KindHeap, size).Addr,
			a.Mmap("stack", UpperHalf, KindStack, PageSize).Addr,
			a.Mmap("nic", LowerHalf, KindPinned, PageSize).Addr,
		}
		for i := 0; i < 12; i++ {
			if i == 6 {
				a.CommitUpperHalf()
			}
			b := make([]byte, 1+rng.Intn(200))
			rng.Read(b)
			off := uint64(rng.Intn(size - len(b)))
			if err := a.Write(addrs[2], off, b); err != nil {
				t.Fatal(err)
			}
		}
		return a, addrs
	}
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 8, 64, PageSize - 1, PageSize, PageSize + 7, 3*PageSize + 100, size} {
		for target := range 5 {
			a, addrs := build()
			if uint64(n) > a.find(addrs[target]).desc.Size {
				continue
			}
			twin, _ := build()
			a.Fingerprint() // every region's memo is current
			prefix := make([]byte, n)
			rng.Read(prefix)
			clear(prefix[n/3 : n/2]) // a written zero run
			if n > 0 {
				if err := twin.Write(addrs[target], 0, prefix); err != nil {
					t.Fatal(err)
				}
			}
			r := a.find(addrs[target])
			mut, hash, hashOK, allDirty := r.mut, r.hash, r.hashOK, r.allDirty
			var pages []*page
			var dirty bitmap
			if mut != nil {
				pages, dirty = slices.Clone(mut.pages), slices.Clone(mut.dirty)
			}
			got, err := a.FingerprintWith(addrs[target], prefix)
			if err != nil {
				t.Fatal(err)
			}
			if want := twin.Fingerprint(); got != want {
				t.Errorf("region %d, %d-byte prefix: FingerprintWith = %016x, written %016x", target, n, got, want)
			}
			if allocs := testing.AllocsPerRun(3, func() { a.FingerprintWith(addrs[target], prefix) }); allocs != 0 {
				t.Errorf("region %d, %d-byte prefix: %v allocations, want 0", target, n, allocs)
			}
			if r.mut != mut || r.hash != hash || r.hashOK != hashOK || r.allDirty != allDirty ||
				mut != nil && (!slices.Equal(mut.pages, pages) || !slices.Equal(mut.dirty, dirty)) {
				t.Errorf("region %d, %d-byte prefix: the call changed the live region", target, n)
			}
		}
	}
	a, addrs := build()
	if _, err := a.FingerprintWith(addrs[3], make([]byte, PageSize+1)); err == nil {
		t.Error("a prefix longer than the region was accepted")
	}
	if _, err := a.FingerprintWith(0xdead, nil); err == nil {
		t.Error("an unmapped region was accepted")
	}
}

// TestReadIntoOverwritesStaleBytes: ReadInto fills all of dst, zeros
// included, whatever dst held before.
func TestReadIntoOverwritesStaleBytes(t *testing.T) {
	a := NewAddressSpace()
	r := a.MmapZero("state", UpperHalf, KindData, 3*PageSize)
	mustWrite(t, a, r.Addr, PageSize+10, []byte{1, 2, 3})
	dst := bytes.Repeat([]byte{0xff}, 2*PageSize)
	if err := a.ReadInto(r.Addr, 100, dst); err != nil {
		t.Fatal(err)
	}
	want, _ := a.Read(r.Addr, 100, 2*PageSize)
	if !bytes.Equal(dst, want) || dst[PageSize+10-100] != 1 || dst[0] != 0 {
		t.Error("ReadInto left stale bytes or lost written ones")
	}
	if err := a.ReadInto(r.Addr, 3*PageSize-1, dst[:2]); err == nil {
		t.Error("a read past the region was accepted")
	}
}
