package memsim

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"

	"mana/internal/fnv1a"
)

// This file drives the sparse page store against a reference model that
// keeps every region as one flat []byte with its own record and one dirty
// flag per page — the representation the package used before the page
// store, with its region-granular seal, transcribed here and used nowhere
// else. One interpreter turns a byte string into a sequence of
// address-space operations and applies each to both; after every step
// everything observable must agree. Besides the general operations it has
// ones aimed at what the model does not have: page buffers shorter than a
// page (runs of appended markers, writes past, out of and into short and
// frozen short pages, cuts inside them) and regions that are a pointer to
// a shared descriptor until written (layouts, bootstrap-and-restore,
// commit cycles over regions that never get contents).

// flat materialises a region's logical contents: DataLen bytes, nil when
// the region has none.
func flat(r *Region) []byte {
	if r.DataLen == 0 {
		return nil
	}
	out := make([]byte, r.DataLen)
	for idx, p := range r.pages {
		if p != nil {
			start, end := pageExtent(idx, r.DataLen)
			copy(out[start:end], p.prefix(end-start))
		}
	}
	return out
}

type flatRegion struct {
	Name       string
	Half       Half
	Kind       Kind
	Addr, Size uint64
	Data       []byte // nil: no contents

	dirty   []bool // one per page of Size
	sealed  []byte
	hasSeal bool
}

func (r *flatRegion) markAllDirty() {
	r.dirty = make([]bool, pageCount(r.Size))
	for i := range r.dirty {
		r.dirty[i] = true
	}
}

func (r *flatRegion) dirtyPages() []int {
	var out []int
	for i, d := range r.dirty {
		if d {
			out = append(out, i)
		}
	}
	return out
}

func (r *flatRegion) clean() bool { return r.hasSeal && len(r.dirtyPages()) == 0 }

func (r *flatRegion) seal() {
	r.sealed = bytes.Clone(r.Data)
	r.hasSeal = true
	r.dirty = make([]bool, pageCount(r.Size))
}

type flatSpace struct {
	regions []*flatRegion // both halves, ascending address
	brk     uint64
	gen     uint64
}

func (m *flatSpace) find(addr uint64) *flatRegion {
	for _, r := range m.regions {
		if r.Addr == addr {
			return r
		}
	}
	return nil
}

func (m *flatSpace) add(r *Region, data []byte) {
	fr := &flatRegion{Name: r.Name, Half: r.Half, Kind: r.Kind, Addr: r.Addr, Size: r.Size, Data: data}
	fr.markAllDirty()
	m.regions = append(m.regions, fr)
	sort.Slice(m.regions, func(i, j int) bool { return m.regions[i].Addr < m.regions[j].Addr })
}

func (m *flatSpace) remove(addr uint64) {
	for i, r := range m.regions {
		if r.Addr == addr {
			m.regions = append(m.regions[:i:i], m.regions[i+1:]...)
			return
		}
	}
}

func (m *flatSpace) upper() []*flatRegion {
	var out []*flatRegion
	for _, r := range m.regions {
		if r.Half == UpperHalf {
			out = append(out, r)
		}
	}
	return out
}

func (m *flatSpace) write(addr, off uint64, data []byte) {
	r := m.find(addr)
	if uint64(len(r.Data)) < r.Size {
		grown := make([]byte, r.Size)
		copy(grown, r.Data)
		r.Data = grown
		r.markAllDirty()
	}
	copy(r.Data[off:], data)
	for p := off / PageSize; len(data) > 0 && p <= (off+uint64(len(data))-1)/PageSize; p++ {
		r.dirty[p] = true
	}
}

func (m *flatSpace) shrink(delta uint64) uint64 {
	heaps := []*flatRegion{}
	for _, r := range m.upper() {
		if r.Kind == KindHeap {
			heaps = append(heaps, r)
		}
	}
	var released uint64
	for i := len(heaps) - 1; i >= 0 && delta > 0; i-- {
		r := heaps[i]
		if delta >= r.Size {
			delta -= r.Size
			released += r.Size
			m.remove(r.Addr)
			continue
		}
		r.Size -= delta
		if uint64(len(r.Data)) > r.Size {
			r.Data = r.Data[:r.Size]
		}
		r.sealed, r.hasSeal = nil, false
		r.markAllDirty()
		released += delta
		delta = 0
	}
	if m.brk > upperBase+released {
		m.brk -= released
	} else if m.brk > upperBase {
		m.brk = upperBase
	}
	return released
}

// flatSnap is the model's full image: deep copies, always.
type flatSnap struct {
	Regions []flatRegion
	Brk     uint64
}

func (m *flatSpace) snapshot(commit bool) flatSnap {
	s := flatSnap{Brk: m.brk}
	for _, r := range m.upper() {
		c := *r
		c.Data = bytes.Clone(r.Data)
		s.Regions = append(s.Regions, c)
		if commit && !r.clean() {
			r.seal()
		}
	}
	if commit {
		m.gen++
	}
	return s
}

// relayout is the model of rebuilding the space from a Layout of itself:
// the same regions and contents, nothing committed.
func (m *flatSpace) relayout() {
	for _, r := range m.regions {
		r.sealed, r.hasSeal = nil, false
		r.markAllDirty()
	}
	m.gen = 0
}

// restore replaces the upper half with the image's; keepLower says
// whether the lower half survives (a bootstrap from a layout) or the
// space starts empty.
func (m *flatSpace) restore(s flatSnap, keepLower bool) {
	lower := m.regions[:0:0]
	for _, r := range m.regions {
		if keepLower && r.Half == LowerHalf {
			lower = append(lower, r)
		}
	}
	m.regions = nil
	for i := range s.Regions {
		c := s.Regions[i]
		c.Data = bytes.Clone(c.Data)
		c.sealed, c.hasSeal = nil, false
		c.markAllDirty()
		m.regions = append(m.regions, &c)
	}
	m.regions = append(m.regions, lower...) // the lower half lies above the upper
	m.brk = s.Brk
	m.relayout()
}

func flatContentHash(r *flatRegion) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	u64(uint64(len(r.Name)))
	h.Write([]byte(r.Name))
	u64(uint64(r.Half))
	u64(uint64(r.Kind))
	u64(r.Addr)
	u64(r.Size)
	u64(uint64(len(r.Data)))
	h.Write(r.Data)
	return h.Sum64()
}

func flatFingerprint(brk uint64, regions []*flatRegion) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	u64(brk)
	u64(uint64(len(regions)))
	for _, r := range regions {
		u64(flatContentHash(r))
	}
	return h.Sum64()
}

func (m *flatSpace) fingerprint() uint64 { return flatFingerprint(m.brk, m.upper()) }

func (s flatSnap) fingerprint() uint64 {
	regions := make([]*flatRegion, len(s.Regions))
	for i := range s.Regions {
		regions[i] = &s.Regions[i]
	}
	return flatFingerprint(s.Brk, regions)
}

func (s flatSnap) equal(o flatSnap) bool {
	if len(s.Regions) != len(o.Regions) || s.Brk != o.Brk {
		return false
	}
	for i := range s.Regions {
		a, b := &s.Regions[i], &o.Regions[i]
		if a.Addr != b.Addr || a.Size != b.Size || a.Half != b.Half || a.Kind != b.Kind || a.Name != b.Name ||
			len(a.Data) != len(b.Data) || !bytes.Equal(a.Data, b.Data) {
			return false
		}
	}
	return true
}

// verify is the flat Snapshot.Verify: pages counted up to and including
// the first region whose contents no longer match recorded.
func (s flatSnap) verify(recorded flatSnap) (pages int, ok bool) {
	for i := range s.Regions {
		pages += pageCount(uint64(len(s.Regions[i].Data)))
		if !bytes.Equal(s.Regions[i].Data, recorded.Regions[i].Data) {
			return pages, false
		}
	}
	return pages, true
}

// corrupt is the flat CorruptSnapshot; it returns the damaged copy.
func (s flatSnap) corrupt(n int) (flatSnap, int) {
	out := flatSnap{Brk: s.Brk, Regions: append([]flatRegion(nil), s.Regions...)}
	done := 0
	for i := range out.Regions {
		if done >= n {
			break
		}
		r := &out.Regions[i]
		if len(r.Data) == 0 {
			continue
		}
		r.Data = bytes.Clone(r.Data)
		for off := 0; off < len(r.Data) && done < n; off += PageSize {
			r.Data[off] ^= 0xFF
			done++
		}
	}
	return out, done
}

type flatPage struct {
	Index int
	Hash  uint64
	Data  []byte
}

type flatRegionDelta struct {
	flatRegion // metadata only
	DataLen    uint64
	Pages      []flatPage
}

type flatDelta struct {
	BaseGen, Brk                         uint64
	Regions                              []flatRegionDelta
	ScannedPages, DirtyPages             int
	DirtyBytes, DedupBytes, PayloadBytes uint64
}

func (m *flatSpace) commitDelta() flatDelta {
	d := flatDelta{BaseGen: m.gen, Brk: m.brk}
	for _, r := range m.upper() {
		rd := flatRegionDelta{DataLen: uint64(len(r.Data))}
		rd.Name, rd.Half, rd.Kind, rd.Addr, rd.Size = r.Name, r.Half, r.Kind, r.Addr, r.Size
		d.ScannedPages += pageCount(r.Size)
		for _, idx := range r.dirtyPages() {
			start, end := pageExtent(idx, rd.DataLen)
			if start >= end {
				continue
			}
			cur := r.Data[start:end]
			d.DirtyPages++
			d.DirtyBytes += end - start
			if r.hasSeal && end <= uint64(len(r.sealed)) && bytes.Equal(cur, r.sealed[start:end]) {
				d.DedupBytes += end - start
				continue
			}
			h := fnv.New64a()
			h.Write(cur)
			rd.Pages = append(rd.Pages, flatPage{Index: idx, Hash: h.Sum64(), Data: bytes.Clone(cur)})
			d.PayloadBytes += end - start
		}
		d.Regions = append(d.Regions, rd)
		if !r.clean() {
			r.seal()
		}
	}
	m.gen++
	return d
}

// program feeds the interpreter: a byte string read front to back, zeros
// once exhausted.
type program struct {
	b []byte
	i int
}

func (p *program) done() bool { return p.i >= len(p.b) }

func (p *program) next() int {
	if p.done() {
		return 0
	}
	p.i++
	return int(p.b[p.i-1])
}

// harness is one differential run: the sparse space, the flat model, and
// the newest retained image of each (a full snapshot, kept current by
// overlaying every delta onto it the way a restart would).
type harness struct {
	t    *testing.T
	p    *program
	pool *Pool
	a    *AddressSpace
	m    *flatSpace

	img      Snapshot
	flatImg  flatSnap
	hasImg   bool
	peek     Snapshot // the last uncommitted snapshot, retained likewise
	flatPeek flatSnap
	lastD    Delta
	lastFlat flatDelta
	hasDelta bool
	step     int

	// twin is a space built from a Layout of a at some step and never
	// touched again, twinFlat the model's snapshot at that step: whatever
	// a does afterwards, the two share descriptors and pages and the twin
	// must not change.
	twin     *AddressSpace
	twinFlat flatSnap
}

func (h *harness) failf(format string, args ...any) {
	h.t.Helper()
	h.t.Fatalf("step %d: %s", h.step, fmt.Sprintf(format, args...))
}

func (h *harness) pick() *flatRegion {
	if len(h.m.regions) == 0 {
		return nil
	}
	return h.m.regions[h.p.next()%len(h.m.regions)]
}

// payload returns n bytes: a repeated value, all zeros one time in four.
func (h *harness) payload(n int) []byte {
	v := h.p.next()
	if v%4 == 0 {
		return make([]byte, n)
	}
	return bytes.Repeat([]byte{byte(v)}, n)
}

// maxRegions bounds the live set so a long program stays cheap to check.
const maxRegions = 12

func (h *harness) mmap() {
	half := UpperHalf
	if h.p.next()%5 == 0 {
		half = LowerHalf
	}
	h.mmapIn(half)
}

func (h *harness) mmapIn(half Half) {
	if len(h.m.regions) >= maxRegions {
		return
	}
	kind := []Kind{KindData, KindHeap, KindText, KindStack}[h.p.next()%4]
	n := uint64(1 + h.p.next()*97%(5*PageSize))
	name := fmt.Sprintf("r%d", h.step)
	switch h.p.next() % 3 {
	case 0:
		h.m.add(h.a.Mmap(name, half, kind, n), nil)
	case 1:
		data := h.payload(int(n))
		h.m.add(h.a.MmapWithData(name, half, kind, data), bytes.Clone(data))
	case 2:
		h.m.add(h.a.MmapZero(name, half, kind, n), make([]byte, n))
	}
}

func (h *harness) write() {
	r := h.pick()
	if r == nil {
		return
	}
	n := uint64(1 + h.p.next()%40)
	if h.p.next()%8 == 0 {
		n = uint64(h.p.next()) * 64 // up to several pages
	}
	n = min(n, r.Size)
	var off uint64
	switch h.p.next() % 4 {
	case 0: // straddle a page boundary
		boundary := uint64(1+h.p.next()%4) * PageSize
		off = boundary - min(n/2, boundary)
	case 1: // the region's tail
		off = r.Size - n
	default:
		off = uint64(h.p.next()) * 131
	}
	if off+n > r.Size {
		off = r.Size - n
	}
	data := h.payload(int(n))
	if h.p.next()%6 == 0 && uint64(len(r.Data)) >= off+n {
		data = bytes.Clone(r.Data[off : off+n]) // rewrite what is there: dedup fodder
	}
	if err := h.a.Write(r.Addr, off, data); err != nil {
		h.failf("Write(%q, %d, %d bytes): %v", r.Name, off, n, err)
	}
	h.m.write(r.Addr, off, data)
}

func (h *harness) sbrk() {
	h.sbrkBy(uint64(1 + h.p.next()*53%(3*PageSize)))
}

// sbrkBy grows the heap in both representations and returns the model's
// new region, nil when the live set is full.
func (h *harness) sbrkBy(delta uint64) *flatRegion {
	if len(h.m.regions) >= maxRegions {
		return nil
	}
	res := h.a.Sbrk(delta)
	h.m.add(res.Region, nil)
	if !res.UsedMmap && !res.CorruptedLowerHalf {
		h.m.brk += align(delta)
	}
	return h.m.find(res.Region.Addr)
}

func (h *harness) shrink() {
	h.shrinkBy(uint64(1 + h.p.next()*61%(2*PageSize)))
}

func (h *harness) shrinkBy(delta uint64) {
	if got, want := h.a.SbrkShrink(delta), h.m.shrink(delta); got != want {
		h.failf("SbrkShrink(%d) released %d, model %d", delta, got, want)
	}
}

// put writes data at off into region r of both representations; a write
// that does not fit (a region can be a few bytes long after a shrink) is
// skipped.
func (h *harness) put(r *flatRegion, off uint64, data []byte) {
	if off > r.Size || uint64(len(data)) > r.Size-off {
		return
	}
	if err := h.a.Write(r.Addr, off, data); err != nil {
		h.failf("Write(%q, %d, %d bytes): %v", r.Name, off, len(data), err)
	}
	h.m.write(r.Addr, off, data)
}

// marker returns the eight bytes a rank stores for progress point i.
func marker(i int) []byte {
	return binary.LittleEndian.AppendUint64(nil, uint64(i)+1)
}

// shortPage writes a few bytes at the start of a page of r — if nothing
// else was written there the page's buffer is now the shortest there is
// — and returns the page's offset in the region.
func (h *harness) shortPage(r *flatRegion) uint64 {
	base := uint64(h.p.next()%pageCount(r.Size)) * PageSize
	h.put(r, base, h.payload(1+h.p.next()%8))
	return base
}

// appendRun stores markers at consecutive offsets from the start of a
// page, the way a rank's state page fills: the buffer under them grows a
// class at a time, up to a full page at 512 markers.
func (h *harness) appendRun() {
	r := h.pick()
	if r == nil {
		return
	}
	base := uint64(h.p.next()%pageCount(r.Size)) * PageSize
	for i, n := 0, 2*(1+h.p.next()); i < n; i++ {
		h.put(r, base+uint64(i)*8, marker(i))
	}
}

// spanRun stores a run of eight-byte markers in one page the way a rank
// flushes its state markers: one WriteSpan from the first marker to the
// last, filled in place, with the slots between them marked or left as
// they were. A twin of the region taken just before gets the same
// markers as eight-byte Writes; the two must agree on contents, buffer
// lengths, dirty pages and which pages are owned or frozen, and the
// model on everything check compares.
func (h *harness) spanRun() {
	r := h.pick()
	if r == nil || r.Size < 8 {
		return
	}
	base := uint64(h.p.next()%pageCount(r.Size)) * PageSize
	extent := min(PageSize, r.Size-base)
	if shift := uint64(h.p.next() % 8); extent >= shift+8 {
		base, extent = base+shift, extent-shift
	}
	slots := int(extent / 8)
	if slots == 0 {
		return
	}
	first := h.p.next() % slots
	n := 1 + h.p.next()%(slots-first)
	off := base + uint64(first)*8
	pattern, v := h.p.next(), h.p.next()
	twin := twinOf(h.a, r.Addr)
	span, err := h.a.WriteSpan(r.Addr, off, uint64(n)*8)
	if err != nil || len(span) != n*8 {
		h.failf("WriteSpan(%q, %d, %d) = %d bytes, %v", r.Name, off, n*8, len(span), err)
	}
	for i := 0; i < n; i++ {
		if i != 0 && i != n-1 && pattern>>(i%8)&1 == 0 {
			continue // a slot the run leaves alone
		}
		at := off + uint64(i)*8
		copy(span[i*8:], marker(v+i))
		if err := twin.Write(r.Addr, at, marker(v+i)); err != nil {
			h.failf("twin Write(%q, %d): %v", r.Name, at, err)
		}
		h.m.write(r.Addr, at, marker(v+i))
	}
	x, _, _ := h.a.find(r.Addr)
	y, _, _ := twin.find(r.Addr)
	if d := liveDiff(x, y); d != "" {
		h.failf("a span run into %q at %d (%d slots) differs from eight-byte writes: %s", r.Name, off, n, d)
	}
}

// twinOf returns a space holding one live region, a deep copy of the
// one at addr in a: the same descriptor, page buffers of the same
// lengths and bytes, the same owned, dirty and all-dirty state.
func twinOf(a *AddressSpace, addr uint64) *AddressSpace {
	r, half, _ := a.find(addr)
	c := *r
	if m := r.mut; m != nil {
		mc := *m
		mc.pages = make([]*page, len(m.pages))
		for i, p := range m.pages {
			if p != nil {
				mc.pages[i] = &page{b: bytes.Clone(p.b)}
			}
		}
		mc.owned, mc.dirty = slices.Clone(m.owned), slices.Clone(m.dirty)
		c.mut = &mc
	}
	t := NewAddressSpace()
	t.regions[half] = []liveRegion{c}
	return t
}

// liveDiff describes the first difference between two live regions'
// contents and bookkeeping, "" when there is none.
func liveDiff(x, y *liveRegion) string {
	if x.dataLen() != y.dataLen() || x.allDirty != y.allDirty || x.hashOK != y.hashOK {
		return fmt.Sprintf("data length %d/%d, all dirty %v/%v, hash memo %v/%v",
			x.dataLen(), y.dataLen(), x.allDirty, y.allDirty, x.hashOK, y.hashOK)
	}
	if dx, dy := fmt.Sprint(x.dirtyPages()), fmt.Sprint(y.dirtyPages()); dx != dy {
		return fmt.Sprintf("dirty pages %s/%s", dx, dy)
	}
	px, py := x.pages(), y.pages()
	if len(px) != len(py) {
		return fmt.Sprintf("page tables of %d/%d slots", len(px), len(py))
	}
	owned := func(r *liveRegion, i int) bool { return r.mut != nil && r.mut.owned.test(i) }
	for i := range px {
		if (px[i] == nil) != (py[i] == nil) || !bytes.Equal(px[i].buf(), py[i].buf()) {
			return fmt.Sprintf("page %d holds %d/%d bytes or other ones", i, len(px[i].buf()), len(py[i].buf()))
		}
		if owned(x, i) != owned(y, i) {
			return fmt.Sprintf("page %d owned %v/%v", i, owned(x, i), owned(y, i))
		}
	}
	return ""
}

// pastShortPage writes the last eight bytes of a page whose buffer is 64
// bytes, or eight bytes across the boundary behind it.
func (h *harness) pastShortPage(straddle bool) {
	r := h.pick()
	if r == nil {
		return
	}
	off := h.shortPage(r) + PageSize - 8
	if straddle {
		off += 4
	}
	h.put(r, off, marker(h.step))
}

// intoFrozenShortPage commits a short page and writes it again, inside
// the frozen buffer or past it: the image must keep what it had.
func (h *harness) intoFrozenShortPage() {
	r := h.pick()
	if r == nil {
		return
	}
	base := h.shortPage(r)
	if h.p.next()%2 == 0 {
		h.commitFull()
	} else {
		h.commitDelta()
	}
	if r = h.m.find(r.Addr); r != nil {
		h.put(r, base+uint64(h.p.next())*3, h.payload(1+h.p.next()%8))
	}
}

// shrinkInsideShortPage grows the heap by two pages, leaves a 64-byte
// buffer on the second, cuts the region inside that buffer or just past
// it, and grows again: over the cut page's tail, then with a new region.
func (h *harness) shrinkInsideShortPage() {
	r := h.sbrkBy(2 * PageSize)
	if r == nil {
		return
	}
	h.put(r, PageSize+16, marker(h.step))
	keep := uint64(40) // inside the buffer
	if h.p.next()%2 == 0 {
		keep = 100 // past it
	}
	addr := r.Addr
	if h.p.next()%3 == 0 {
		h.commitDelta() // the cut page is frozen
	}
	h.shrinkBy(PageSize - keep)
	if r = h.m.find(addr); r != nil && r.Size >= 8 {
		h.put(r, r.Size-8, marker(h.step))
	}
	h.sbrkBy(PageSize)
}

// lowerHalfRestart discards the lower half and maps a new one, which is
// what a restart does to it.
func (h *harness) lowerHalfRestart() {
	var want uint64
	for _, r := range append([]*flatRegion(nil), h.m.regions...) {
		if r.Half == LowerHalf {
			want += r.Size
			h.m.remove(r.Addr)
		}
	}
	if got := h.a.UnmapHalf(LowerHalf); got != want {
		h.failf("UnmapHalf released %d bytes, model %d", got, want)
	}
	for n := 1 + h.p.next()%3; n > 0; n-- {
		h.mmapIn(LowerHalf)
	}
}

// relayout takes a Layout of the space, keeps a twin built from it, and
// either goes on with the space (its pages are now frozen) or replaces it
// with another one built from the layout (nothing committed, all dirty).
func (h *harness) relayout() {
	l := h.a.Layout()
	h.twin, h.twinFlat = l.NewSpace(nil), h.m.snapshot(false)
	if h.p.next()%2 == 0 {
		h.a.Release()
		h.a = l.NewSpace(h.pool)
		h.m.relayout()
		h.hasDelta = false
	}
}

// cycle runs commits, deltas and a restore back to back over whatever
// regions there are — most of them never written.
func (h *harness) cycle() {
	h.commitFull()
	h.commitDelta()
	h.restore()
	h.commitDelta()
	h.commitDelta()
}

func (h *harness) munmap() {
	if r := h.pick(); r != nil {
		if !h.a.Munmap(r.Addr) {
			h.failf("Munmap(%q) found nothing", r.Name)
		}
		h.m.remove(r.Addr)
	}
}

// sameSnapshot compares a sparse snapshot with a flat one: layout, data
// lengths, contents, fingerprint (memoised and recomputed) and Verify.
func (h *harness) sameSnapshot(what string, s Snapshot, f flatSnap) {
	h.t.Helper()
	if len(s.Regions) != len(f.Regions) || s.Brk != f.Brk {
		h.failf("%s: %d regions brk %x, model %d regions brk %x", what, len(s.Regions), s.Brk, len(f.Regions), f.Brk)
	}
	for i := range s.Regions {
		a, b := &s.Regions[i], &f.Regions[i]
		if a.Name != b.Name || a.Half != b.Half || a.Kind != b.Kind || a.Addr != b.Addr || a.Size != b.Size {
			h.failf("%s: region %d is %+v, model %+v", what, i, a, b)
		}
		if a.DataLen != uint64(len(b.Data)) || !bytes.Equal(flat(a), b.Data) {
			h.failf("%s: region %q contents differ (DataLen %d, model %d)", what, a.Name, a.DataLen, len(b.Data))
		}
	}
	want := f.fingerprint()
	if got := s.Fingerprint(); got != want {
		h.failf("%s: fingerprint %016x, model %016x", what, got, want)
	}
	bare := s
	bare.RegionHashes = nil
	if got := bare.Fingerprint(); got != want {
		h.failf("%s: recomputed fingerprint %016x, model %016x", what, got, want)
	}
	wantPages, _ := f.verify(f)
	if pages, err := s.Verify(); err != nil || pages != wantPages {
		h.failf("%s: Verify = %d pages, %v; model %d pages", what, pages, err, wantPages)
	}
}

// check compares the live space with the model region by region, and the
// retained image with the model's: an image must survive whatever the
// live space and the pool did since it was taken.
func (h *harness) check() {
	h.t.Helper()
	live := h.a.Regions()
	if len(live) != len(h.m.regions) {
		h.failf("%d live regions, model %d", len(live), len(h.m.regions))
	}
	for i, fr := range h.m.regions {
		if live[i].Addr != fr.Addr || live[i].Size != fr.Size || live[i].DataLen != uint64(len(fr.Data)) {
			h.failf("region %d: live %+v, model %q addr %x size %d datalen %d",
				i, live[i], fr.Name, fr.Addr, fr.Size, len(fr.Data))
		}
		got, err := h.a.Read(fr.Addr, 0, fr.Size)
		want := make([]byte, fr.Size)
		copy(want, fr.Data)
		if err != nil || !bytes.Equal(got, want) {
			h.failf("region %q reads differently from the model (%v)", fr.Name, err)
		}
		if dirty, _ := h.a.DirtyPages(fr.Addr); fmt.Sprint(dirty) != fmt.Sprint(fr.dirtyPages()) {
			h.failf("region %q dirty pages %v, model %v", fr.Name, dirty, fr.dirtyPages())
		}
		r, _, _ := h.a.find(fr.Addr)
		pages, dataLen := r.pages(), r.dataLen()
		if n := len(pages); n != 0 && n != pageCount(dataLen) {
			h.failf("region %q has a %d-slot page table for %d bytes", fr.Name, n, dataLen)
		}
		if cut := dataLen % PageSize; cut != 0 && len(pages) > 0 {
			if b := pages[len(pages)-1].prefix(PageSize); uint64(len(b)) > cut && !isZero(b[cut:]) {
				h.failf("region %q has bytes past its data length", fr.Name)
			}
		}
	}
	if got, want := h.a.Fingerprint(), h.m.fingerprint(); got != want {
		h.failf("in-place fingerprint %016x, model %016x", got, want)
	}
	// The retained captures were compared with the model when they were
	// taken; their hash memos now detect any later change to a page they
	// share with the live space or the pool.
	for _, s := range []Snapshot{h.img, h.peek} {
		if _, err := s.Verify(); err != nil {
			h.failf("a retained capture changed after it was taken: %v", err)
		}
	}
	if h.twin != nil {
		h.sameSnapshot("twin from a layout of an earlier step", h.twin.SnapshotUpperHalf(), h.twinFlat)
	}
}

func (h *harness) snapshot() {
	s, f := h.a.SnapshotUpperHalf(), h.m.snapshot(false)
	h.sameSnapshot("snapshot", s, f)
	h.peek, h.flatPeek = s, f
	if h.hasImg {
		if got, want := s.Equal(h.img), f.equal(h.flatImg); got != want {
			h.failf("Equal(snapshot, image) = %v, model %v", got, want)
		}
	}
}

func (h *harness) commitFull() {
	h.img, h.flatImg, h.hasImg = h.a.CommitUpperHalf(), h.m.snapshot(true), true
	h.hasDelta = false
	h.sameSnapshot("full commit", h.img, h.flatImg)
}

func (h *harness) commitDelta() {
	if h.m.gen == 0 || !h.hasImg {
		h.commitFull()
		return
	}
	d, f := h.a.CommitUpperHalfDelta(), h.m.commitDelta()
	if d.BaseGen != f.BaseGen || d.Brk != f.Brk || len(d.Regions) != len(f.Regions) {
		h.failf("delta header %d/%x/%d regions, model %d/%x/%d", d.BaseGen, d.Brk, len(d.Regions), f.BaseGen, f.Brk, len(f.Regions))
	}
	if d.ScannedPages != f.ScannedPages || d.DirtyPages != f.DirtyPages || d.DirtyBytes != f.DirtyBytes ||
		d.DedupBytes != f.DedupBytes || d.PayloadBytes() != f.PayloadBytes {
		h.failf("delta counters scanned %d dirty %d/%d dedup %d payload %d, model %d %d/%d %d %d",
			d.ScannedPages, d.DirtyPages, d.DirtyBytes, d.DedupBytes, d.PayloadBytes(),
			f.ScannedPages, f.DirtyPages, f.DirtyBytes, f.DedupBytes, f.PayloadBytes)
	}
	carried := 0
	for i, rd := range d.Regions {
		fd := f.Regions[i]
		if rd.Name != fd.Name || rd.Addr != fd.Addr || rd.Size != fd.Size || rd.Half != fd.Half || rd.Kind != fd.Kind ||
			rd.DataLen != fd.DataLen || len(rd.Pages) != len(fd.Pages) {
			h.failf("delta region %d is %q datalen %d with %d pages, model %q %d %d",
				i, rd.Name, rd.DataLen, len(rd.Pages), fd.Name, fd.DataLen, len(fd.Pages))
		}
		for j, p := range rd.Pages {
			fp := fd.Pages[j]
			if p.Index != fp.Index || p.Hash != fp.Hash || p.Len != len(fp.Data) {
				h.failf("delta page %q[%d]: index %d hash %016x len %d, model %d %016x %d",
					rd.Name, j, p.Index, p.Hash, p.Len, fp.Index, fp.Hash, len(fp.Data))
			}
			if len(p.Data) > p.Len || !bytes.Equal(p.Data, fp.Data[:len(p.Data)]) || !isZero(fp.Data[len(p.Data):]) {
				h.failf("delta page %q[%d] contents differ", rd.Name, p.Index)
			}
			carried++
		}
	}
	if pages, err := d.Verify(); err != nil || pages != carried {
		h.failf("Delta.Verify = %d pages, %v; carried %d", pages, err, carried)
	}
	if got, want := d.FullBytes(), h.m.snapshot(false).totalBytes(); got != want {
		h.failf("Delta.FullBytes = %d, model %d", got, want)
	}
	h.lastD, h.lastFlat, h.hasDelta = d, f, true
	// A restart would overlay the delta onto the image it has; the result
	// must be the full image a CommitUpperHalf would have produced now.
	h.img, h.flatImg = ApplyDelta(h.img, d), h.m.snapshot(false)
	h.sameSnapshot("overlay", h.img, h.flatImg)
	if !h.img.Equal(h.a.SnapshotUpperHalf()) {
		h.failf("overlay differs from the live space")
	}
}

func (s flatSnap) totalBytes() (n uint64) {
	for i := range s.Regions {
		n += s.Regions[i].Size
	}
	return n
}

// corrupt damages a copy of the retained image (or of the last delta) in
// both representations: the same number of pages must be hit, the damage
// must be detected — at the same page count — and the undamaged original
// must still verify.
func (h *harness) corrupt() {
	n := 1 + h.p.next()%5
	if h.hasDelta && h.p.next()%2 == 0 {
		d := h.lastD
		d.Regions = append([]RegionDelta(nil), d.Regions...)
		for i := range d.Regions {
			d.Regions[i].Pages = append([]PageDelta(nil), d.Regions[i].Pages...)
		}
		want := 0
		for _, fd := range h.lastFlat.Regions {
			for _, fp := range fd.Pages {
				if want < n && len(fp.Data) > 0 {
					want++
				}
			}
		}
		if got := CorruptDelta(&d, n); got != want {
			h.failf("CorruptDelta(%d) damaged %d pages, model %d", n, got, want)
		}
		if pages, err := d.Verify(); (err != nil) != (want > 0) || (want > 0 && pages != 1) {
			h.failf("Verify of a delta with %d damaged pages = %d pages, %v", want, pages, err)
		}
		if _, err := h.lastD.Verify(); err != nil {
			h.failf("corrupting a copy damaged the delta itself: %v", err)
		}
		return
	}
	if !h.hasImg {
		return
	}
	bad := h.img
	bad.Regions = append([]Region(nil), bad.Regions...)
	flatBad, want := h.flatImg.corrupt(n)
	if got := CorruptSnapshot(&bad, n); got != want {
		h.failf("CorruptSnapshot(%d) damaged %d pages, model %d", n, got, want)
	}
	for i := range bad.Regions {
		if !bytes.Equal(flat(&bad.Regions[i]), flatBad.Regions[i].Data) {
			h.failf("damaged region %q differs from the model's", bad.Regions[i].Name)
		}
	}
	wantPages, ok := flatBad.verify(h.flatImg)
	if pages, err := bad.Verify(); (err == nil) != ok || pages != wantPages {
		h.failf("Verify of an image with %d damaged pages = %d pages, %v; model %d, ok=%v", want, pages, err, wantPages, ok)
	}
	h.sameSnapshot("image after corrupting a copy", h.img, h.flatImg)
}

// restore rebuilds the space from the retained image the way rank.Restore
// does: the dead space's pages go back to the pool, a fresh space — empty,
// or the bootstrap of a layout, with its lower half — maps the image. The
// image itself must come through intact (check, every step).
func (h *harness) restore() {
	if !h.hasImg {
		return
	}
	bootstrap := h.p.next()%2 == 0
	fresh := NewAddressSpacePooled(h.pool)
	if bootstrap {
		fresh = h.a.Layout().Bootstrap(h.pool)
	}
	h.a.Release()
	h.a = fresh
	h.a.RestoreUpperHalf(h.img)
	h.m.restore(h.flatImg, bootstrap)
	h.hasDelta = false
	if h.a.Generation() != 0 {
		h.failf("restored space at generation %d", h.a.Generation())
	}
}

// runDifferential interprets prog against both representations.
func runDifferential(t *testing.T, prog []byte) {
	pool := NewPool()
	h := &harness{
		t: t, p: &program{b: prog}, pool: pool,
		a: NewAddressSpacePooled(pool), m: &flatSpace{brk: upperBase},
	}
	for ; !h.p.done() && h.step < 300; h.step++ {
		switch op := h.p.next() % 25; op {
		case 0, 1:
			h.mmap()
		case 2, 3, 4, 5, 6:
			h.write()
		case 7:
			h.sbrk()
		case 8:
			h.shrink()
		case 9:
			h.munmap()
		case 10:
			h.commitFull()
		case 11, 12:
			h.commitDelta()
		case 13:
			h.snapshot()
		case 14:
			h.corrupt()
		case 15:
			if h.p.next()%4 == 0 {
				on := h.p.next()%2 == 0
				h.a.SetSbrkInterposition(on)
			} else {
				h.restore()
			}
		case 16:
			h.appendRun()
		case 17, 18:
			h.pastShortPage(op == 18)
		case 19:
			h.intoFrozenShortPage()
		case 20:
			h.shrinkInsideShortPage()
		case 21:
			h.lowerHalfRestart()
		case 22:
			h.relayout()
		case 23:
			h.cycle()
		case 24:
			h.spanRun()
		}
		h.check()
	}
}

func TestSparseVsFlat(t *testing.T) {
	runs := 150
	if testing.Short() {
		runs = 30
	}
	for seed := 0; seed < runs; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		prog := make([]byte, 600)
		rng.Read(prog)
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { runDifferential(t, prog) })
	}
}

func FuzzSparseVsFlat(f *testing.F) {
	for seed := 0; seed < 8; seed++ {
		rng := rand.New(rand.NewSource(int64(1000 + seed)))
		prog := make([]byte, 300)
		rng.Read(prog)
		f.Add(prog)
	}
	f.Fuzz(runDifferential)
}

// TestZeroRunIdentity pins the identity the sparse hash rests on: from
// any FNV-1a state, folding in n zero bytes is one multiplication by
// prime^n.
func TestZeroRunIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []uint64{0, 1, 4095, 4096, 4097, 65536, 8 << 20} {
		for trial := 0; trial < 4; trial++ {
			prefix := make([]byte, rng.Intn(64))
			rng.Read(prefix)
			ref := fnv.New64a()
			ref.Write(prefix)
			ref.Write(make([]byte, n))
			if got := uint64(fnv1a.Offset.Bytes(prefix).Zeros(n)); got != ref.Sum64() {
				t.Errorf("n=%d after a %d-byte prefix: zeros gives %016x, hash/fnv %016x", n, len(prefix), got, ref.Sum64())
			}
		}
	}
	// The same through a page table: absent runs at the head, middle and
	// tail, and a short last page.
	const dataLen = 6*PageSize + 100
	pages := make([]*page, pageCount(dataLen))
	model := make([]byte, dataLen)
	for _, idx := range []int{1, 4} {
		pages[idx] = newPage(PageSize)
		rng.Read(pages[idx].b)
		copy(model[idx*PageSize:], pages[idx].b)
	}
	ref := fnv.New64a()
	ref.Write(model)
	if got := uint64(hashContents(fnv1a.Offset, pages, dataLen)); got != ref.Sum64() {
		t.Errorf("sparse contents hash %016x, flat %016x", got, ref.Sum64())
	}
	if got := uint64(hashContents(fnv1a.Offset, nil, dataLen)); got != uint64(fnv1a.Offset.Zeros(dataLen)) {
		t.Errorf("nil page table hashes to %016x, want %d zeros", got, dataLen)
	}
}

// TestShortPageDigest pins the rule every digest of a short page rests
// on: a prefix followed by the zeros it implies hashes as the materialised
// bytes do, through the page-table hash, the delta page hash and the
// page comparison alike.
func TestShortPageDigest(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		extent := 1 + rng.Intn(PageSize)
		prefix := make([]byte, rng.Intn(extent+1))
		rng.Read(prefix)
		if rng.Intn(4) == 0 {
			clear(prefix[len(prefix)/2:]) // a written zero tail inside the buffer
		}
		whole := make([]byte, extent)
		copy(whole, prefix)
		ref := fnv.New64a()
		ref.Write(whole)
		short, full := &page{b: prefix}, &page{b: whole}
		if got := uint64(hashContents(fnv1a.Offset, []*page{short}, uint64(extent))); got != ref.Sum64() {
			t.Fatalf("prefix %d of extent %d: contents gives %016x, hash/fnv over the bytes %016x", len(prefix), extent, got, ref.Sum64())
		}
		pd := PageDelta{Len: extent, Data: prefix}
		if got := pd.contentHash(); got != ref.Sum64() {
			t.Fatalf("prefix %d of extent %d: delta page hash %016x, hash/fnv over the bytes %016x", len(prefix), extent, got, ref.Sum64())
		}
		if !samePage(short, full, uint64(extent)) || !samePage(full, short, uint64(extent)) {
			t.Fatalf("prefix %d of extent %d compares unequal to its materialised page", len(prefix), extent)
		}
		if isZero(prefix) != samePage(short, nil, uint64(extent)) {
			t.Fatalf("prefix %d of extent %d: equality with the absent page is %v", len(prefix), extent, !isZero(prefix))
		}
		// Two pages in a row: the implied tail joins the next page's bytes.
		ref2 := fnv.New64a()
		ref2.Write(prefix)
		ref2.Write(make([]byte, PageSize-len(prefix)))
		ref2.Write(whole)
		if got := uint64(hashContents(fnv1a.Offset, []*page{short, full}, uint64(PageSize+extent))); got != ref2.Sum64() {
			t.Fatalf("short page %d followed by a %d-byte one: contents gives %016x, want %016x", len(prefix), extent, got, ref2.Sum64())
		}
	}
}

// present counts the materialised pages of the live region at addr.
func present(a *AddressSpace, addr uint64) (n int) {
	r, _, _ := a.find(addr)
	for _, p := range r.pages() {
		if p != nil {
			n++
		}
	}
	return n
}

// allocated returns the bytes and the objects f allocates.
func allocated(f func()) (bytes, objects uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
}

// TestWriteMaterialisesOnlyTouchedPages pins the memory contract: a
// write costs the bytes it reaches into the pages it touches, plus the
// region's page table, however large the region is. (One byte into an
// 8 MiB region used to allocate all 8 MiB; eight bytes into a fresh page
// used to allocate 4 KiB.)
func TestWriteMaterialisesOnlyTouchedPages(t *testing.T) {
	a := NewAddressSpace()
	pinned := a.Mmap("nic.pinned", LowerHalf, KindPinned, 8<<20)
	// One 64-byte buffer and a 2048-slot page table (16 KiB, twice under
	// the race detector, which builds it in two steps).
	if got, _ := allocated(func() { mustWrite(t, a, pinned.Addr, 5<<20+17, []byte{1}) }); got > 40<<10 {
		t.Errorf("one-byte write into an 8 MiB region allocated %d bytes, want <= 40 KiB", got)
	}
	if n := present(a, pinned.Addr); n != 1 {
		t.Errorf("one-byte write materialised %d pages, want 1", n)
	}
	if r, _ := a.Lookup(pinned.Addr); r.DataLen != 8<<20 {
		t.Errorf("written region has DataLen %d, want its full size", r.DataLen)
	}

	state := a.MmapZero("app.state", UpperHalf, KindData, 64<<10)
	if n := present(a, state.Addr); n != 0 {
		t.Errorf("MmapZero materialised %d pages, want 0", n)
	}
	const table = 16 * 8 // app.state's page table
	got, _ := allocated(func() { mustWrite(t, a, state.Addr, 0, marker(0)) })
	if got > table+512 {
		t.Errorf("the first eight bytes into a fresh 64 KiB region allocated %d bytes, want <= %d beyond the %d-byte page table", got, 512, table)
	}
	// A rank's state page fills by appended markers: the buffer grows a
	// class at a time and ends as exactly one full-size buffer.
	for i := 1; i < PageSize/8; i++ {
		mustWrite(t, a, state.Addr, uint64(i)*8, marker(i))
	}
	r, _, _ := a.find(state.Addr)
	if n, p := present(a, state.Addr), r.pages()[0]; n != 1 || len(p.b) != PageSize {
		t.Errorf("512 appended markers ended in %d pages, the first %d bytes long; want one full-size buffer", n, len(p.b))
	}
	mustWrite(t, a, state.Addr, 4*PageSize-4, []byte("straddle"))
	if n := present(a, state.Addr); n != 3 {
		t.Errorf("a write straddling one page boundary materialised %d more pages, want 2", n-1)
	}
	// The page the write ran out of is full, the one it ran into as short
	// as a buffer gets.
	if out, in := r.pages()[3], r.pages()[4]; len(out.b) != PageSize || len(in.b) != minPageBuf {
		t.Errorf("straddling write left buffers of %d and %d bytes, want %d and %d", len(out.b), len(in.b), PageSize, minPageBuf)
	}
	// Never-written contents and written zeros are the same contents.
	b := NewAddressSpace()
	b.MmapWithData("app.state", UpperHalf, KindData, make([]byte, 64<<10))
	c := NewAddressSpace()
	c.MmapZero("app.state", UpperHalf, KindData, 64<<10)
	if !b.SnapshotUpperHalf().Equal(c.SnapshotUpperHalf()) || b.Fingerprint() != c.Fingerprint() {
		t.Error("a region of written zeros and a never-written one compare or hash differently")
	}
}

// TestDenseWriteAllocatesOnce pins the other end: a page written end to
// end at once gets its full-size buffer directly — the buffer and the
// page header in front of it, no chain of shorter ones — and eight bytes
// into a buffer the region owns and that is long enough allocate nothing.
func TestDenseWriteAllocatesOnce(t *testing.T) {
	a := NewAddressSpace()
	state := a.MmapZero("app.state", UpperHalf, KindData, 64<<10)
	mustWrite(t, a, state.Addr, 5*PageSize, marker(0)) // page table and contents record exist now
	dense := bytes.Repeat([]byte{0xDD}, PageSize)
	bytes, objects := allocated(func() { mustWrite(t, a, state.Addr, 0, dense) })
	if objects > 2 || bytes > PageSize+64 {
		t.Errorf("a page written end to end allocated %d bytes in %d objects, want the buffer and its header", bytes, objects)
	}
	eight := marker(1)
	if n := testing.AllocsPerRun(100, func() { mustWrite(t, a, state.Addr, 128, eight) }); n != 0 {
		t.Errorf("eight bytes into an owned full-size buffer allocate %v times", n)
	}
	if n := testing.AllocsPerRun(100, func() { mustWrite(t, a, state.Addr, 5*PageSize+8, eight) }); n != 0 {
		t.Errorf("eight bytes inside an owned 64-byte buffer allocate %v times", n)
	}
}

// TestFrozenShortPageNeverGrownInPlace: a capture that shares a short
// page keeps exactly what it had when the live space writes past the
// buffer, inside it, or fills the page — and the live space sees its own
// writes.
func TestFrozenShortPageNeverGrownInPlace(t *testing.T) {
	pool := NewPool()
	a := NewAddressSpacePooled(pool)
	state := a.MmapZero("app.state", UpperHalf, KindData, 64<<10)
	mustWrite(t, a, state.Addr, 0, marker(0))
	img := a.CommitUpperHalf()
	frozen := img.Regions[0].pages[0]
	before := bytes.Clone(frozen.b)
	fp := img.Fingerprint()
	mustWrite(t, a, state.Addr, 8, marker(1))    // inside the frozen 64 bytes
	mustWrite(t, a, state.Addr, 1000, marker(2)) // past them
	mustWrite(t, a, state.Addr, 0, bytes.Repeat([]byte{9}, PageSize))
	if !bytes.Equal(frozen.b, before) || len(frozen.b) != minPageBuf {
		t.Errorf("the captured page changed under live writes: %d bytes % x", len(frozen.b), frozen.b[:16])
	}
	if _, err := img.Verify(); err != nil || img.Fingerprint() != fp {
		t.Errorf("image damaged by writes after the commit: %v", err)
	}
	a.Release()
	if n := len(pool.free); n != 1 {
		t.Fatalf("Release pooled %d pages, want the one full-size page written since the commit", n)
	}
	if pool.free[0] == frozen {
		t.Fatal("Release pooled the page the image holds")
	}
}

// TestLayoutSharedAcrossGoroutines builds spaces from one layout on
// several goroutines at once and writes, commits and restores them there:
// under -race this is the check that nothing writes a descriptor, and
// every space must end with the fingerprint a space built alone has.
func TestLayoutSharedAcrossGoroutines(t *testing.T) {
	proto, state := rankLikeSpace()
	l := proto.Layout()
	work := func(a *AddressSpace) uint64 {
		for i := 0; i < 40; i++ {
			if err := a.Write(state, uint64(i)*8, marker(i)); err != nil {
				panic(err)
			}
			if i == 10 {
				a.CommitUpperHalf()
			}
			if i == 20 {
				d := a.CommitUpperHalfDelta()
				d.Verify()
			}
		}
		img := a.CommitUpperHalf()
		b := l.Bootstrap(nil)
		b.RestoreUpperHalf(img)
		if err := b.Write(state, 512, marker(99)); err != nil {
			panic(err)
		}
		return b.Fingerprint()
	}
	alone := NewAddressSpace()
	for _, r := range proto.Regions() {
		if r.DataLen > 0 {
			alone.MmapZero(r.Name, r.Half, r.Kind, r.DataLen)
		} else {
			alone.Mmap(r.Name, r.Half, r.Kind, r.Size)
		}
	}
	want := work(alone)
	got := make([]uint64, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = work(l.NewSpace(nil))
		}()
	}
	wg.Wait()
	for g, fp := range got {
		if fp != want {
			t.Errorf("space %d built from the shared layout ends at %016x, one built by Mmap calls at %016x", g, fp, want)
		}
	}
	if l.NewSpace(nil).Fingerprint() != proto.Fingerprint() {
		t.Error("the layout changed while spaces built from it were written")
	}
}

// TestFrozenPagesNeverPooled: after a commit the image shares the live
// space's pages, so Release must hand the pool only pages written since —
// and reusing those must leave the image intact.
func TestFrozenPagesNeverPooled(t *testing.T) {
	pool := NewPool()
	a := NewAddressSpacePooled(pool)
	r := a.MmapWithData("state", UpperHalf, KindData, bytes.Repeat([]byte{7}, 3*PageSize))
	img := a.CommitUpperHalf()
	fp := img.Fingerprint()
	mustWrite(t, a, r.Addr, PageSize, []byte{9}) // copies page 1; pages 0 and 2 stay shared
	a.Release()
	if n := len(pool.free); n != 1 {
		t.Fatalf("Release pooled %d pages, want only the one written since the commit", n)
	}
	pg := pool.get()
	for i := range pg.b {
		pg.b[i] = 0xEE
	}
	if pages, err := img.Verify(); err != nil || pages != 3 || img.Fingerprint() != fp {
		t.Fatalf("image damaged by recycling: %d pages, %v", pages, err)
	}
	if !bytes.Equal(flat(&img.Regions[0]), bytes.Repeat([]byte{7}, 3*PageSize)) {
		t.Fatal("image contents changed")
	}
}
