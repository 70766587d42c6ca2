package memsim

import (
	"reflect"
	"slices"
	"sync"
	"testing"
)

// jobSpaces returns n spaces built from one rank-like layout that record
// their mappings in one job table, and the table.
func jobSpaces(t *testing.T, n int) ([]*AddressSpace, *Mappings) {
	t.Helper()
	l, _, _ := sharedLayout(t)
	maps := new(Mappings)
	spaces := make([]*AddressSpace, n)
	for i := range spaces {
		spaces[i] = l.NewSpace()
		spaces[i].ShareMappings(maps)
	}
	return spaces, maps
}

// sameDigests fails unless every live region's memoised digest, where it
// has one, is the one its descriptor and contents hash to from scratch.
func sameDigests(t *testing.T, who string, a *AddressSpace) {
	t.Helper()
	for half := range a.regions {
		for i := range a.regions[half] {
			r := &a.regions[half][i]
			if !r.hashOK {
				continue
			}
			if want := r.desc.hashWith(r.dataLen(), r.pages(), nil); r.hash != want {
				t.Errorf("%s: region %q memoises digest %016x, its contents hash to %016x", who, r.desc.Name, r.hash, want)
			}
		}
	}
}

// TestSiblingsShareMappedDescriptors: spaces of one job that sbrk and
// mmap alike hold the same descriptors, pointer for pointer, with digests
// equal to a fresh contentHash, and fingerprint as a space outside any
// job that made the same calls.
func TestSiblingsShareMappedDescriptors(t *testing.T) {
	spaces, maps := jobSpaces(t, 3)
	l, _, _ := sharedLayout(t)
	alone := l.NewSpace()
	grow := func(a *AddressSpace) []*Region {
		return []*Region{
			a.Sbrk(128 << 10).Region,
			a.MmapZero("zeros", UpperHalf, KindData, 100),
			a.Sbrk(4096).Region,
			a.Mmap("pinned", LowerHalf, KindPinned, 8192),
		}
	}
	want := grow(alone)
	first := grow(spaces[0])
	for i, a := range spaces[1:] {
		got := grow(a)
		for j := range got {
			if got[j] != first[j] {
				t.Errorf("space %d: mapping %d (%q) has a descriptor of its own, not the job's", i+1, j, got[j].Name)
			}
		}
	}
	for j, d := range first {
		if !reflect.DeepEqual(*d, *want[j]) {
			t.Errorf("shared descriptor %d is %+v, a space outside the job maps %+v", j, *d, *want[j])
		}
	}
	recorded := 0
	for half := range maps.slots {
		for _, s := range maps.slots[half] {
			if s.desc != nil {
				recorded++
			}
			if s.desc != nil && (!s.hashOK || s.hash != s.desc.contentHash() || !s.allDirty || s.mut != nil) {
				t.Errorf("slot %q: digest %016x (memoised %v), fresh contentHash %016x, allDirty %v", s.desc.Name, s.hash, s.hashOK, s.desc.contentHash(), s.allDirty)
			}
		}
	}
	if recorded != len(first) {
		t.Errorf("the table records %d mappings, the spaces made %d", recorded, len(first))
	}
	for i, a := range spaces {
		sameDigests(t, "sibling", a)
		if got, want := a.Fingerprint(), alone.Fingerprint(); got != want {
			t.Errorf("space %d fingerprints %016x, a space outside the job %016x", i, got, want)
		}
	}
}

// TestDifferentMappingGetsPrivateDescriptor: a mapping that differs from
// its position's slot in any field the table compares gets a descriptor
// of its own and leaves the slot as it was; a later space that makes the
// slot's mapping still gets the slot's descriptor.
func TestDifferentMappingGetsPrivateDescriptor(t *testing.T) {
	for _, differ := range []struct {
		name string
		mmap func(a *AddressSpace) *Region
	}{
		{"size", func(a *AddressSpace) *Region { return a.Mmap("[heap-mmap]", UpperHalf, KindHeap, 8192) }},
		{"name", func(a *AddressSpace) *Region { return a.Mmap("other", UpperHalf, KindHeap, 4096) }},
		{"kind", func(a *AddressSpace) *Region { return a.Mmap("[heap-mmap]", UpperHalf, KindData, 4096) }},
		{"data length", func(a *AddressSpace) *Region { return a.MmapZero("[heap-mmap]", UpperHalf, KindHeap, 4096) }},
		{"address", func(a *AddressSpace) *Region {
			a.nextUpper += PageSize
			return a.Mmap("[heap-mmap]", UpperHalf, KindHeap, 4096)
		}},
	} {
		t.Run(differ.name, func(t *testing.T) {
			spaces, maps := jobSpaces(t, 3)
			shared := spaces[0].Sbrk(4096).Region
			pos := len(spaces[0].regions[UpperHalf]) - 1
			if pos >= len(maps.slots[UpperHalf]) || maps.slots[UpperHalf][pos].desc != shared {
				t.Fatal("the first sbrk did not record its descriptor in the table")
			}
			slot := maps.slots[UpperHalf][pos]
			before := *slot.desc

			private := differ.mmap(spaces[1])
			if private == shared {
				t.Fatalf("a mapping whose %s differs took the slot's descriptor", differ.name)
			}
			if maps.slots[UpperHalf][pos] != slot || !reflect.DeepEqual(*slot.desc, before) {
				t.Errorf("a mapping whose %s differs changed the slot", differ.name)
			}
			if r := &spaces[1].regions[UpperHalf][pos]; r.desc != private || !r.allDirty || r.hashOK {
				t.Errorf("the differing mapping's live region is %+v", *r)
			}
			if got := spaces[2].Sbrk(4096).Region; got != shared {
				t.Error("after a differing mapping, a sibling's matching sbrk no longer takes the slot's descriptor")
			}
			sameDigests(t, "differing space", spaces[1])
		})
	}
}

// TestWriteToSharedMappingStaysPrivate follows TestSharedPayloadsStayReadOnly:
// a space writes into, captures and commits a region whose descriptor it
// shares with a sibling, and the sibling's bytes, digest and capture, and
// the shared descriptor, are what they were.
func TestWriteToSharedMappingStaysPrivate(t *testing.T) {
	spaces, _ := jobSpaces(t, 2)
	a, sibling := spaces[0], spaces[1]
	heap := a.Sbrk(3 * PageSize).Region
	if sibling.Sbrk(3*PageSize).Region != heap {
		t.Fatal("the siblings' sbrks do not share a descriptor")
	}
	desc := *heap
	desc.pages = slices.Clone(heap.pages)
	bytesBefore, err := sibling.Read(heap.Addr, 0, heap.Size)
	if err != nil {
		t.Fatal(err)
	}
	fpBefore := sibling.Fingerprint()
	snapBefore := sibling.SnapshotUpperHalf()
	snapCopy := *snapBefore
	snapCopy.Regions = slices.Clone(snapBefore.Regions)

	mustWrite(t, a, heap.Addr, PageSize-3, []byte("across a page boundary"))
	a.CommitUpperHalf()
	mustWrite(t, a, heap.Addr, 2*PageSize+9, []byte("after the commit"))
	a.CommitUpperHalfDelta()

	if !reflect.DeepEqual(*heap, desc) {
		t.Errorf("a write through one space changed the shared descriptor: %+v, was %+v", *heap, desc)
	}
	if got, _ := sibling.Read(heap.Addr, 0, heap.Size); !reflect.DeepEqual(got, bytesBefore) {
		t.Error("a write in one space changed its sibling's bytes")
	}
	if got := sibling.Fingerprint(); got != fpBefore {
		t.Errorf("a write in one space moved its sibling's fingerprint: %016x, was %016x", got, fpBefore)
	}
	if got := sibling.SnapshotUpperHalf(); !got.Equal(&snapCopy) || got.Fingerprint() != snapCopy.Fingerprint() {
		t.Error("a write in one space changed its sibling's capture")
	}
	if a.Fingerprint() == fpBefore {
		t.Error("the writing space's fingerprint did not move")
	}
	sameDigests(t, "writer", a)
	sameDigests(t, "sibling", sibling)
}

// TestSiblingSbrkAllocatesNoDescriptor pins the saving: once the job's
// table holds a mapping, a sibling's sbrk of it within the sibling's
// reserve allocates nothing — no descriptor, no region table.
func TestSiblingSbrkAllocatesNoDescriptor(t *testing.T) {
	const runs = 50
	spaces, _ := jobSpaces(t, 2)
	first, sibling := spaces[0], spaces[1]
	for range runs + 1 { // AllocsPerRun calls once more, to warm up
		first.Sbrk(64 << 10)
	}
	sibling.ReserveMappings(runs + 1)
	sibling.own()
	table := &sibling.regions[UpperHalf][:1][0]
	if n := testing.AllocsPerRun(runs, func() { sibling.Sbrk(64 << 10) }); n != 0 {
		t.Errorf("a sibling's sbrk of a mapping the table holds makes %v allocations, want 0", n)
	}
	if &sibling.regions[UpperHalf][0] != table {
		t.Error("the sibling's sbrks within its reserve regrew its region table")
	}
	for i := range sibling.regions[UpperHalf] {
		if sibling.regions[UpperHalf][i].desc != first.regions[UpperHalf][i].desc {
			t.Fatalf("the sibling's region %d is not the first space's descriptor", i)
		}
	}
}

// TestReserveSizesTheTableOnce: a space built from a layout with a
// reserve of n owns a table whose upper half has room for exactly n more
// mappings, and the n sbrks fill it in place, leaving the lower half
// where it was. A space restored from an image taken part way, with the
// first space's reservation carried over, has room for exactly the sbrks
// still to come. A space given no reserve owns a table with no room, as
// before, and one whose reserve is full grows as a slice does.
func TestReserveSizesTheTableOnce(t *testing.T) {
	const n, early = 5, 2
	l, _, _ := sharedLayout(t)
	a := l.NewSpace()
	lower := slices.Clone(a.regions[LowerHalf]) // the layout's, still shared
	a.ReserveMappings(n)
	var img *Snapshot
	for i := range n {
		if i == early {
			img = a.CommitUpperHalf()
		}
		a.Sbrk(4096) // the first one makes own build the table
	}
	upper := a.regions[UpperHalf]
	if len(upper) != len(img.Regions)+n-early || cap(upper) != len(upper) {
		t.Errorf("a reserve of %d filled by as many sbrks: %d entries in %d, want %d in as many",
			n, len(upper), cap(upper), len(img.Regions)+n-early)
	}
	if got := a.regions[LowerHalf]; len(got) != len(lower) {
		t.Errorf("the lower half holds %d regions, the layout %d", len(got), len(lower))
	}
	for i := range lower {
		if a.regions[LowerHalf][i].desc != lower[i].desc {
			t.Errorf("filling the reserve overwrote lower-half region %d", i)
		}
	}
	a.Sbrk(4096) // past the reserve: a copy
	if got := a.regions[UpperHalf]; &got[0] == &upper[0] {
		t.Error("an sbrk past the reserve wrote past the upper half's room")
	}

	b := l.NewSpace()
	b.own()
	if u := b.regions[UpperHalf]; cap(u) != len(u) {
		t.Errorf("a space with no reserve owns %d upper entries with room for %d, want none", len(u), cap(u)-len(u))
	}

	c := l.Bootstrap()
	c.ReserveMappings(a.ReservedMappings())
	c.RestoreUpperHalf(img)
	if u := c.regions[UpperHalf]; len(u) != len(img.Regions) || cap(u)-len(u) != n-early {
		t.Errorf("restored at sbrk %d of %d: %d entries with room for %d; want %d with room for %d",
			early, n, len(u), cap(u)-len(u), len(img.Regions), n-early)
	}
}

// TestSpaceOutsideAJobMapsPrivately: a space with no table (NewSpace of a
// layout, NewAddressSpace, a Bootstrap) allocates a descriptor per
// mapping as before, and a Layout taken of a space in a job carries no
// table into the spaces built from it.
func TestSpaceOutsideAJobMapsPrivately(t *testing.T) {
	spaces, _ := jobSpaces(t, 1)
	spaces[0].Sbrk(4096)
	l := spaces[0].Layout()
	for _, a := range []*AddressSpace{l.NewSpace(), l.Bootstrap(), NewAddressSpace()} {
		if a.Mappings() != nil {
			t.Fatal("a space built outside a job has a mapping table")
		}
	}
	x, y := l.NewSpace(), l.NewSpace()
	if x.Sbrk(4096).Region == y.Sbrk(4096).Region {
		t.Error("two spaces with no table share a descriptor")
	}
}

// TestJobsMapConcurrently runs two jobs on two goroutines, building
// spaces from one shared layout that was taken of a space in a third
// job; each goroutine gives every second space its job's table and
// leaves the others outside any job, as ranks built without a
// coordinator are. Under -race this is the check that nothing a layout hands out
// leads to a job's table, and the spaces must fingerprint alike.
func TestJobsMapConcurrently(t *testing.T) {
	spaces, _ := jobSpaces(t, 1)
	spaces[0].Sbrk(4096)
	l := spaces[0].Layout()
	var wg sync.WaitGroup
	got := make([]uint64, 2)
	for job := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			maps := new(Mappings)
			fp := make([]uint64, 4)
			for n := range 4 {
				a := l.NewSpace()
				if n%2 == 0 {
					a.ShareMappings(maps)
				}
				for i := range 20 {
					a.Sbrk(uint64(i+1) * 4096)
				}
				fp[n] = a.Fingerprint()
			}
			for _, f := range fp[1:] {
				if f != fp[0] {
					t.Errorf("job %d: spaces in and out of the job fingerprint %016x and %016x", job, fp[0], f)
				}
			}
			got[job] = fp[0]
		}()
	}
	wg.Wait()
	if got[0] != got[1] {
		t.Errorf("two jobs that sbrk alike fingerprint %016x and %016x", got[0], got[1])
	}
}
