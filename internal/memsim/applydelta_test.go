package memsim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// applyDeltaByMap is ApplyDelta as it was before it joined base and delta
// regions by index: base regions are found through a map[uint64]int built
// per call, and a base region of another shape is ignored. Kept as the
// reference for the join.
func applyDeltaByMap(base *Snapshot, d Delta) *Snapshot {
	baseIdx := make(map[uint64]int, len(base.Regions))
	for i := range base.Regions {
		baseIdx[base.Regions[i].Addr] = i
	}
	baseHashes := len(base.RegionHashes) == len(base.Regions)
	out := &Snapshot{Brk: d.Brk}
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
// writes and heap growth, commits a chain of deltas, and requires the
// index join to materialise every link exactly as the map-based join
// does — and both as the live space reads.
func TestApplyDeltaJoinVsMap(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := NewAddressSpace()
		var addrs []uint64
		mutate := func() {
			for n := 1 + rng.Intn(8); n > 0; n-- {
				switch op := rng.Intn(8); {
				case op < 2 || len(addrs) == 0:
					r := a.Mmap(fmt.Sprint("r", rng.Intn(4)), UpperHalf, Kind(rng.Intn(4)), uint64(1+rng.Intn(6*PageSize)))
					if rng.Intn(2) == 0 {
						r = a.MmapZero("z", UpperHalf, KindData, uint64(1+rng.Intn(4*PageSize)))
					}
					addrs = append(addrs, r.Addr)
				case op < 7:
					addr := addrs[rng.Intn(len(addrs))]
					if r, ok := regionAt(a, addr); ok {
						buf := make([]byte, min(1+rng.Intn(24), int(r.Size)))
						rng.Read(buf)
						if rng.Intn(4) == 0 {
							clear(buf) // dirties without changing: dedup
						}
						if err := a.Write(addr, uint64(rng.Intn(int(r.Size)-len(buf)+1)), buf); err != nil {
							t.Fatal(err)
						}
					}
				default:
					addrs = append(addrs, a.Sbrk(uint64(1+rng.Intn(5*PageSize))).Region.Addr)
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
				t.Fatalf("%s: index join materialises different contents (equal to map join %v, to live space %v)",
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

// TestApplyDeltaRejectsUnsortedDelta: the join pairs regions by index, so
// a delta whose regions are out of their base's order does not extend it
// and must not be materialised silently.
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

// TestApplyDeltaRejectsDeltaNotExtendingBase reaches the invariant the
// index join rests on: an address space only grows, so a delta whose
// region list drops one of its base's, puts another region at its index,
// or holds shorter data there, was captured against something else.
func TestApplyDeltaRejectsDeltaNotExtendingBase(t *testing.T) {
	a := NewAddressSpace()
	a.MmapZero("x", UpperHalf, KindData, PageSize)
	a.Mmap("y", UpperHalf, KindData, PageSize)
	base := a.CommitUpperHalf()
	// other maps a longer x, so its y lies one page higher than a's.
	other := NewAddressSpace()
	other.MmapZero("x", UpperHalf, KindData, 2*PageSize)
	other.Mmap("y", UpperHalf, KindData, PageSize)
	other.CommitUpperHalf()
	for _, c := range []struct {
		name string
		d    func() Delta
		want string
	}{
		{"region dropped", func() Delta {
			d := a.CommitUpperHalfDelta()
			d.Regions = d.Regions[:1]
			return d
		}, "memsim: delta of 1 regions does not extend its base of 2"},
		{"another address", other.CommitUpperHalfDelta,
			`memsim: delta region 1 ("y" at 0x400000003000, 0 bytes) does not extend base region "y" at 0x400000002000 (0 bytes)`},
		{"data shortened", func() Delta {
			d := a.CommitUpperHalfDelta()
			d.Regions = slices.Clone(d.Regions)
			d.Regions[0].DataLen = 0
			return d
		}, `memsim: delta region 0 ("x" at 0x400000000000, 0 bytes) does not extend base region "x" at 0x400000000000 (4096 bytes)`},
	} {
		t.Run(c.name, func(t *testing.T) {
			d := c.d()
			defer func() {
				if got := fmt.Sprint(recover()); got != c.want {
					t.Errorf("ApplyDelta panicked with %q, want %q", got, c.want)
				}
			}()
			ApplyDelta(base, d)
		})
	}
}

// TestApplyDeltaOfNothingIsTheBase: a delta that carries no page over
// its base's layout and program break materialises as the base itself,
// while one that carries a page, or changes the layout, builds a new
// snapshot.
func TestApplyDeltaOfNothingIsTheBase(t *testing.T) {
	a := recaptureSpace(t)
	state := regionNamed(t, a, "app.state")
	for _, c := range []struct {
		name   string
		change func()
		same   bool
	}{
		{"nothing", func() {}, true},
		{"same-bytes write", func() { mustWrite(t, a, state, PageSize, make([]byte, 40)) }, true},
		{"write", func() { mustWrite(t, a, state, PageSize, []byte{8}) }, false},
		{"sbrk", func() { a.Sbrk(PageSize) }, false},
	} {
		base := a.CommitUpperHalf()
		c.change()
		got := ApplyDelta(base, a.CommitUpperHalfDelta())
		if (got == base) != c.same {
			t.Errorf("%s: the overlay is the base %v, want %v", c.name, got == base, c.same)
		}
		if !got.Equal(a.SnapshotUpperHalf()) {
			t.Errorf("%s: the overlay differs from the live space", c.name)
		}
	}
}
