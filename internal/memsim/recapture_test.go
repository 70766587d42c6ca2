package memsim

import (
	"bytes"
	"reflect"
	"testing"
	"unsafe"
)

// recaptureSpace maps an upper half with written, zero-length,
// contentless and heap regions over a lower half.
func recaptureSpace(t *testing.T) *AddressSpace {
	a := NewAddressSpace()
	a.Mmap("libmpi.so", LowerHalf, KindText, 8*PageSize)
	a.MmapWithData("app.data", UpperHalf, KindData, bytes.Repeat([]byte{7}, 3*PageSize+100))
	a.MmapZero("app.state", UpperHalf, KindData, 2*PageSize)
	a.Mmap("libc.text", UpperHalf, KindText, 4*PageSize)
	heap := a.Mmap("[heap]", UpperHalf, KindHeap, 2*PageSize)
	mustWrite(t, a, heap.Addr, PageSize+8, []byte{1, 2, 3})
	return a
}

// regionNamed returns the address of the live upper region called name.
func regionNamed(t *testing.T, a *AddressSpace, name string) uint64 {
	t.Helper()
	for _, r := range a.RegionsOf(UpperHalf) {
		if r.Name == name {
			return r.Addr
		}
	}
	t.Fatalf("no upper region %q", name)
	return 0
}

// sameBacking reports whether two slices are one array: what a recapture
// hands out instead of a copy.
func sameBacking[T any](x, y []T) bool {
	return len(x) == len(y) && (len(x) == 0 || &x[0] == &y[0])
}

// TestCorruptingASharedImageLeavesItsTwinIntact pins copy-on-write for
// the images a recapture shares: back-to-back commits of an unchanged
// space are one snapshot, and damaging a copy of its header must leave
// the snapshot, and the space's next recapture, verifying.
func TestCorruptingASharedImageLeavesItsTwinIntact(t *testing.T) {
	a := recaptureSpace(t)
	first, shared := a.CommitUpperHalf(), a.CommitUpperHalf()
	if first != shared {
		t.Fatal("two commits of an unchanged space do not share their snapshot")
	}
	second := *shared
	if got := CorruptSnapshot(&second, 2); got != 2 {
		t.Fatalf("CorruptSnapshot damaged %d pages, want 2", got)
	}
	if _, err := second.Verify(); err == nil {
		t.Error("the corrupted snapshot still verifies")
	}
	if sameBacking(second.Regions, first.Regions) {
		t.Error("CorruptSnapshot damaged the region list it shares")
	}
	if _, err := first.Verify(); err != nil {
		t.Errorf("corrupting the second commit damaged the first: %v", err)
	}
	if third := a.CommitUpperHalf(); third != first {
		t.Error("the recapture after the corruption is not the intact first commit")
	} else if _, err := third.Verify(); err != nil {
		t.Errorf("the recapture after the corruption does not verify: %v", err)
	}

	// A delta that carries a page is the commit's own; the clean ones
	// after it share one page-less list, which has nothing to damage.
	mustWrite(t, a, regionNamed(t, a, "app.state"), 16, []byte{9})
	carrying := a.CommitUpperHalfDelta()
	d1, d2 := a.CommitUpperHalfDelta(), a.CommitUpperHalfDelta()
	if !sameBacking(d1.Regions, d2.Regions) {
		t.Fatal("two delta commits of an unchanged space do not share their region list")
	}
	if sameBacking(carrying.Regions, d1.Regions) {
		t.Fatal("a delta that carried a page shares its region list with a later commit")
	}
	if got := CorruptDelta(&d2, 4); got != 0 {
		t.Errorf("CorruptDelta damaged %d pages of a delta that carries none", got)
	}
	if got := CorruptDelta(&carrying, 1); got != 1 {
		t.Errorf("CorruptDelta damaged %d pages of a one-page delta, want 1", got)
	}
	for i, d := range []Delta{d1, d2, a.CommitUpperHalfDelta()} {
		if pages, err := d.Verify(); err != nil || pages != 0 {
			t.Errorf("clean delta %d: Verify = %d pages, %v after corrupting its twins", i, pages, err)
		}
	}
	if _, err := carrying.Verify(); err == nil {
		t.Error("the corrupted delta still verifies")
	}
}

// TestCleanRecaptureAllocatesNothing pins the point of remembering the
// last commit: recommitting, or snapshotting, a space nothing changed
// costs no allocation, full or incremental.
func TestCleanRecaptureAllocatesNothing(t *testing.T) {
	a := recaptureSpace(t)
	a.CommitUpperHalf()
	a.CommitUpperHalfDelta()
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"full commit", func() { a.CommitUpperHalf() }},
		{"delta commit", func() { a.CommitUpperHalfDelta() }},
		{"snapshot", func() { a.SnapshotUpperHalf() }},
	} {
		if allocs := testing.AllocsPerRun(100, c.f); allocs != 0 {
			t.Errorf("%s of an unchanged space allocates %v times, want 0", c.name, allocs)
		}
	}
}

// TestRecaptureMatchesFreshCapture drives one space that remembers its
// last commit and one that forgets it before every capture through the
// same change between commits: every capture after it — the first, then
// a recapture — must be the one a space that never remembered anything
// builds, contents, fingerprint and counters alike.
func TestRecaptureMatchesFreshCapture(t *testing.T) {
	changes := []struct {
		name   string
		change func(t *testing.T, a *AddressSpace) *AddressSpace
	}{
		{"nothing", func(t *testing.T, a *AddressSpace) *AddressSpace { return a }},
		{"same-bytes write", func(t *testing.T, a *AddressSpace) *AddressSpace {
			mustWrite(t, a, regionNamed(t, a, "app.data"), PageSize, bytes.Repeat([]byte{7}, 40))
			return a
		}},
		{"write", func(t *testing.T, a *AddressSpace) *AddressSpace {
			mustWrite(t, a, regionNamed(t, a, "app.state"), 3*PageSize/2, []byte{5, 6})
			return a
		}},
		{"empty mmap", func(t *testing.T, a *AddressSpace) *AddressSpace {
			a.Mmap("empty", UpperHalf, KindAnonymous, 0)
			return a
		}},
		{"munmap", func(t *testing.T, a *AddressSpace) *AddressSpace {
			a.Munmap(regionNamed(t, a, "libc.text"))
			return a
		}},
		{"sbrk grow", func(t *testing.T, a *AddressSpace) *AddressSpace {
			a.SetSbrkInterposition(false)
			a.Sbrk(PageSize)
			return a
		}},
		{"sbrk shrink", func(t *testing.T, a *AddressSpace) *AddressSpace {
			a.SbrkShrink(PageSize / 2)
			return a
		}},
		{"restore", func(t *testing.T, a *AddressSpace) *AddressSpace {
			a.RestoreUpperHalf(a.SnapshotUpperHalf())
			return a
		}},
		{"layout", func(t *testing.T, a *AddressSpace) *AddressSpace { return a.Layout().NewSpace() }},
	}
	for _, c := range changes {
		for _, kind := range []string{"full", "delta", "snapshot"} {
			t.Run(c.name+"/"+kind, func(t *testing.T) {
				a, ref := recaptureSpace(t), recaptureSpace(t)
				for _, s := range []*AddressSpace{a, ref} {
					s.CommitUpperHalf()
					s.CommitUpperHalfDelta()
				}
				a, ref = c.change(t, a), c.change(t, ref)
				for round := range 2 {
					ref.last = nil
					switch {
					case kind == "snapshot":
						sameSnap(t, round, a.SnapshotUpperHalf(), ref.SnapshotUpperHalf())
					case kind == "full" || a.Generation() == 0:
						sameSnap(t, round, a.CommitUpperHalf(), ref.CommitUpperHalf())
					default:
						got, want := a.CommitUpperHalfDelta(), ref.CommitUpperHalfDelta()
						if !reflect.DeepEqual(got, want) {
							t.Errorf("capture %d: delta %+v, never-remembered %+v", round, got, want)
						}
					}
				}
			})
		}
	}
}

func sameSnap(t *testing.T, round int, got, want *Snapshot) {
	t.Helper()
	if !got.Equal(want) || got.Fingerprint() != want.Fingerprint() || !reflect.DeepEqual(got.RegionHashes, want.RegionHashes) {
		t.Errorf("capture %d: snapshot %016x differs from the never-remembered %016x", round, got.Fingerprint(), want.Fingerprint())
	}
}

// TestAddressSpaceSize pins the space at the 112-byte size class: every
// rank holds one, so a field past it costs wide-idle's 65,536-rank job
// another size class per rank of peak RSS.
func TestAddressSpaceSize(t *testing.T) {
	if size := unsafe.Sizeof(AddressSpace{}); size > 112 {
		t.Errorf("AddressSpace is %d bytes, budget 112: one more size class per rank is wide-idle's peak RSS", size)
	}
}
