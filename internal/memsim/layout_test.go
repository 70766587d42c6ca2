package memsim

import (
	"reflect"
	"slices"
	"sync"
	"testing"
)

// sharedLayout returns the layout of a rank-like space whose app.data
// region holds contents, so the layout's descriptors carry a page table
// a write through a shared entry would reach, and the two regions'
// addresses.
func sharedLayout(t *testing.T) (l *Layout, state, data uint64) {
	t.Helper()
	a, state := rankLikeSpace()
	data = regionNamed(t, a, "app.data")
	mustWrite(t, a, data, 5000, []byte("layout contents"))
	return a.Layout(), state, data
}

// tableCopy is a deep copy of a layout's region table: every entry and
// the descriptor it points at, page table included.
type tableCopy struct {
	entries [2][]liveRegion
	descs   [2][]Region
}

func copyTable(l *Layout) tableCopy {
	var c tableCopy
	for half, list := range l.space.regions {
		c.entries[half] = slices.Clone(list)
		for i := range list {
			d := *list[i].desc
			d.pages = slices.Clone(d.pages)
			c.descs[half] = append(c.descs[half], d)
		}
	}
	return c
}

// TestSpacesShareTheLayoutTableUntilTheyChangeIt drives every entry point
// that edits or appends a region entry on one space built from a layout
// and checks that the layout's table — entries, descriptors, memoised
// digests — and a sibling space built from it are untouched, and that the
// driven space then owns a table of its own.
func TestSpacesShareTheLayoutTableUntilTheyChangeIt(t *testing.T) {
	other, _ := rankLikeSpace()
	mustWrite(t, other, regionNamed(t, other, "[stack]"), 0, []byte("an image to restore"))
	img := other.CommitUpperHalf()
	steps := []struct {
		name string
		do   func(t *testing.T, a *AddressSpace, state, data uint64)
	}{
		{"Mmap", func(t *testing.T, a *AddressSpace, _, _ uint64) { a.Mmap("extra", LowerHalf, KindPinned, 8192) }},
		{"MmapZero", func(t *testing.T, a *AddressSpace, _, _ uint64) { a.MmapZero("zeros", UpperHalf, KindData, 100) }},
		{"Sbrk", func(t *testing.T, a *AddressSpace, _, _ uint64) { a.Sbrk(4096) }},
		{"WriteSpan", func(t *testing.T, a *AddressSpace, state, _ uint64) {
			b, err := a.WriteSpan(state, 8, 8)
			if err != nil {
				t.Fatal(err)
			}
			copy(b, "marker!!")
		}},
		{"Write", func(t *testing.T, a *AddressSpace, _, data uint64) {
			if err := a.Write(data, 5000, []byte("other")); err != nil {
				t.Fatal(err)
			}
		}},
		{"CommitUpperHalf", func(t *testing.T, a *AddressSpace, _, _ uint64) { a.CommitUpperHalf() }},
		{"CommitUpperHalfDelta", func(t *testing.T, a *AddressSpace, _, _ uint64) {
			a.CommitUpperHalf()
			a.CommitUpperHalfDelta()
		}},
		{"RestoreUpperHalf", func(t *testing.T, a *AddressSpace, _, _ uint64) { a.RestoreUpperHalf(img) }},
	}
	for _, step := range steps {
		t.Run(step.name, func(t *testing.T) {
			l, state, data := sharedLayout(t)
			before := copyTable(l)
			sibling := l.NewSpace(nil, 0)
			want := sibling.Fingerprint()
			a := l.NewSpace(nil, 0)
			if !a.shared {
				t.Fatal("a space fresh from NewSpace does not share its layout's table")
			}
			step.do(t, a, state, data)
			if a.shared {
				t.Errorf("%s left the space sharing its layout's table", step.name)
			}
			if after := copyTable(l); !reflect.DeepEqual(after, before) {
				t.Errorf("%s on a space built from the layout changed the layout's region table", step.name)
			}
			if got := sibling.Fingerprint(); got != want {
				t.Errorf("%s on one space moved its sibling's fingerprint: %016x, was %016x", step.name, got, want)
			}
			if got := l.NewSpace(nil, 0).Fingerprint(); got != want {
				t.Errorf("after %s a new space fingerprints %016x, the layout's spaces %016x", step.name, got, want)
			}
		})
	}
}

// TestNewSpaceAllocatesOnlyItsRecord pins what a rank pays for its
// memory map at construction: the AddressSpace record, no region table.
func TestNewSpaceAllocatesOnlyItsRecord(t *testing.T) {
	l, _, _ := sharedLayout(t)
	var sink *AddressSpace
	if n := testing.AllocsPerRun(100, func() { sink = l.NewSpace(nil, 0) }); n != 1 {
		t.Errorf("NewSpace makes %v allocations, want 1 (the space's record)", n)
	}
	_ = sink
}

// TestSharedSpacesReadConcurrently fingerprints two spaces that share
// their layout's table on two goroutines while a third space built from
// it maps, writes and commits on another: under -race this is the check
// that a reader writes nothing into the shared table and that a space
// owns its table before it edits an entry.
func TestSharedSpacesReadConcurrently(t *testing.T) {
	l, state, data := sharedLayout(t)
	want := l.NewSpace(nil, 0).Fingerprint()
	var wg sync.WaitGroup
	got := make([]uint64, 2)
	for g := range got {
		a := l.NewSpace(nil, 0)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				got[g] = a.Fingerprint()
				if _, err := a.FingerprintWith(state, []byte("owed")); err != nil {
					panic(err)
				}
			}
		}()
	}
	writer := l.NewSpace(nil, 0)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if err := writer.Write(data, uint64(i)*8, marker(i)); err != nil {
				panic(err)
			}
			if i%10 == 0 {
				writer.Sbrk(4096)
				writer.CommitUpperHalf()
			}
		}
	}()
	wg.Wait()
	for g, fp := range got {
		if fp != want {
			t.Errorf("shared space %d fingerprints %016x, the layout's spaces %016x", g, fp, want)
		}
	}
	if writer.Fingerprint() == want {
		t.Error("the writing space's fingerprint did not move")
	}
}
