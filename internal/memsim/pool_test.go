package memsim

import "testing"

// TestPoolRecyclesZeroed pins the pool's core contract: a recycled
// page comes back zeroed, so a pooled page is indistinguishable from a
// fresh newPage(PageSize).
func TestPoolRecyclesZeroed(t *testing.T) {
	p := NewPool()
	pg := p.get()
	for i := range pg.b {
		pg.b[i] = 0xAB
	}
	p.put(pg)
	if pg2 := p.get(); pg2 != pg || len(pg2.b) != PageSize || !isZero(pg2.b) {
		t.Fatal("recycled page is not the pooled one, zeroed")
	}
	gets, hits := p.Stats()
	if gets != 2 || hits != 1 {
		t.Fatalf("Stats() = (%d gets, %d hits), want (2, 1)", gets, hits)
	}
}

// TestAddressSpaceReleaseRecycles checks the full round trip: pages
// materialised in one address space feed the next one built on the same
// pool, and the replayed writes see zeroed backing first.
func TestAddressSpaceReleaseRecycles(t *testing.T) {
	p := NewPool()
	build := func() (*AddressSpace, *Region) {
		a := NewAddressSpacePooled(p)
		data := make([]byte, 4*PageSize)
		for i := range data {
			data[i] = 0xCD
		}
		return a, a.MmapWithData("app.heap", UpperHalf, KindHeap, data)
	}
	a, _ := build()
	a.Release()
	_, hitsBefore := p.Stats()
	b, r := build()
	_, hitsAfter := p.Stats()
	if hitsAfter <= hitsBefore {
		t.Fatalf("second address space did not reuse released buffers: hits %d -> %d", hitsBefore, hitsAfter)
	}
	// The recycled region must read back exactly what was written.
	got, err := b.Read(r.Addr, 0, r.Size)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != 0xCD {
			t.Fatalf("recycled region corrupt at %d: %#x", i, v)
		}
	}
}
