package memsim

import (
	"encoding/binary"
	"runtime"
	"testing"
)

// rankLikeSpace builds an address space shaped like one simulated rank's
// upper half: several contentless text/stack mappings plus one 64 KiB
// zero-filled state region — the layout whose snapshot cost the
// checkpoint path pays per rank per checkpoint.
func rankLikeSpace() (*AddressSpace, uint64) {
	a := NewAddressSpace()
	a.Mmap("app.text", UpperHalf, KindText, 2<<20)
	a.Mmap("app.data", UpperHalf, KindData, 512<<10)
	a.Mmap("libc.text", UpperHalf, KindText, 1800<<10)
	a.Mmap("libmpi.text(link)", UpperHalf, KindText, 4<<20)
	a.Mmap("[stack]", UpperHalf, KindStack, 256<<10)
	state := a.MmapZero("app.state", UpperHalf, KindData, 64<<10)
	a.Mmap("libmpi.so(active)", LowerHalf, KindText, 4<<20)
	return a, state.Addr
}

// benchCapture measures the steady-state capture loop — one small write,
// one capture — and asserts an allocation ceiling per op. Captures share
// pages, so the only per-op allocations are the written page's
// copy-on-write buffer plus a handful of snapshot slices and page
// tables; a regression that deep-copies region contents fails the
// assertion instead of silently shifting the numbers.
func benchCapture(b *testing.B, maxAllocsPerOp float64, capture func(a *AddressSpace) uint64) {
	a, state := rankLikeSpace()
	a.CommitUpperHalf() // seal the initial generation
	payload := make([]byte, 16)
	var sink uint64
	b.ReportAllocs()
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	startAllocs := ms.Mallocs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Vary the contents per iteration so dedup cannot drop the page:
		// the benchmark models a page whose value genuinely changed.
		binary.LittleEndian.PutUint64(payload, uint64(i)+1)
		off := uint64(i%8) * PageSize
		if err := a.Write(state, off, payload); err != nil {
			b.Fatal(err)
		}
		sink += capture(a)
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	if perOp := float64(ms.Mallocs-startAllocs) / float64(b.N); perOp > maxAllocsPerOp {
		b.Errorf("capture allocations = %.1f/op, want <= %.1f/op (clean regions must not be re-copied)",
			perOp, maxAllocsPerOp)
	}
	if sink == 0 {
		b.Fatal("captures carried no bytes")
	}
	b.ReportMetric(float64(sink)/float64(b.N), "image-bytes/op")
}

// BenchmarkSnapshotUpperHalf pins the full-capture path: no contents are
// copied, whatever is dirty.
func BenchmarkSnapshotUpperHalf(b *testing.B) {
	benchCapture(b, 12, func(a *AddressSpace) uint64 {
		return a.CommitUpperHalf().TotalBytes()
	})
}

// BenchmarkSnapshotUpperHalfDelta pins the incremental path: per-op work
// is one dirty page compared and hashed, independent of address-space size.
func BenchmarkSnapshotUpperHalfDelta(b *testing.B) {
	benchCapture(b, 12, func(a *AddressSpace) uint64 {
		return a.CommitUpperHalfDelta().PayloadBytes()
	})
}
