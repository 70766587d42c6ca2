package fnv1a

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"testing"
)

// page is the length of the power table's longest run: the page size of
// the address spaces whose contents go through Bytes.
const page = len(zeroPow) - 1

// checkKernel hashes data through consecutive Bytes calls split at cuts
// (each the length of the next chunk, clipped to what is left) and
// compares against hash/fnv and the byte loop over the whole of it.
func checkKernel(t *testing.T, data []byte, cuts []int) {
	t.Helper()
	ref := fnv.New64a()
	ref.Write(data)
	h, rest := Offset, data
	for _, c := range cuts {
		n := min(max(c, 0), len(rest))
		h = h.Bytes(rest[:n])
		rest = rest[n:]
	}
	h = h.Bytes(rest)
	if uint64(h) != ref.Sum64() {
		t.Fatalf("%d bytes split at %v: kernel %016x, hash/fnv %016x", len(data), cuts, uint64(h), ref.Sum64())
	}
	if loop := Offset.Text(data); loop != h {
		t.Fatalf("%d bytes split at %v: kernel %016x, byte loop %016x", len(data), cuts, uint64(h), uint64(loop))
	}
}

// FuzzFNVKernel: arbitrary bytes with a zero run of arbitrary length (up
// to three pages, so longer than the power table) spliced in at an
// arbitrary offset, fed to the kernel in arbitrary consecutive chunks,
// must hash exactly as hash/fnv and the byte loop hash the whole.
func FuzzFNVKernel(f *testing.F) {
	f.Add([]byte{}, []byte{}, uint16(0), uint16(0))
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 2}, []byte{3}, uint16(4), uint16(page))
	f.Add(bytes.Repeat([]byte{0, 0, 0, 7}, 40), []byte{1, 2, 3, 250}, uint16(77), uint16(3*page-1))
	f.Add(bytes.Repeat([]byte{0xff}, 100), []byte{8, 8, 8}, uint16(50), uint16(page+1))
	f.Fuzz(func(t *testing.T, data, chunks []byte, at, run uint16) {
		cut := min(int(at), len(data))
		zeros := int(run) % (3 * page)
		spliced := append(append(append([]byte(nil), data[:cut]...), make([]byte, zeros)...), data[cut:]...)
		cuts := make([]int, len(chunks))
		for i, c := range chunks {
			// Small chunks exercise the tails; every fourth is stretched so
			// a cut can also land deep inside the spliced run.
			cuts[i] = int(c)
			if i%4 == 3 {
				cuts[i] *= 67
			}
		}
		checkKernel(t, spliced, cuts)
	})
}

// FuzzSegmentFold: folding arbitrary text as a Segment, from an arbitrary
// state, must equal folding it byte by byte — on a cold table (the entry
// is computed by this fold), on a warm one (computed by an earlier fold,
// possibly from a state that shares only its low byte with this one), on
// a table computed whole by NewSegment, and after Set re-targets a warm
// segment at other text. From the offset basis it must equal hash/fnv.
func FuzzSegmentFold(f *testing.F) {
	f.Add([]byte(nil), []byte("x"), uint64(0), uint64(0))
	f.Add([]byte(`rd("app.state",0,1,7f0000000000,65536,4096`), []byte(" MsgsSent:"), uint64(Offset), uint64(0xff))
	f.Add([]byte("vt(0,3,1=a0,2=a1);vt(1,0);vt(2,0);"), []byte{0, 0, 0}, uint64(1<<63), uint64(0x1234_5600))
	f.Add(bytes.Repeat([]byte{0xa5}, 300), []byte{}, uint64(0xdead_beef), uint64(0xef))
	f.Fuzz(func(t *testing.T, text, other []byte, h0, h1 uint64) {
		a, b := Hash(h0), Hash(h1)
		// c shares b's low byte, so it folds through the entry b computed.
		c := b ^ a<<8
		var g Segment
		g.Set(text)
		fixed := NewSegment(string(text))
		for i, h := range []Hash{a, a, b, c} {
			want := h.Text(text)
			if got := h.Fold(&g); got != want {
				t.Fatalf("fold %d of %q from %016x: %016x, byte loop %016x", i, text, uint64(h), uint64(got), uint64(want))
			}
			if got := h.Fold(fixed); got != want {
				t.Fatalf("NewSegment(%q) from %016x: %016x, byte loop %016x", text, uint64(h), uint64(got), uint64(want))
			}
		}
		ref := fnv.New64a()
		ref.Write(text)
		if got := Offset.Fold(&g); uint64(got) != ref.Sum64() {
			t.Fatalf("%q from the offset basis: %016x, hash/fnv %016x", text, uint64(got), ref.Sum64())
		}
		g.Set(other)
		if !bytes.Equal(g.Text(), other) {
			t.Fatalf("Set(%q) stands for %q", other, g.Text())
		}
		for _, h := range []Hash{a, b} {
			if got, want := h.Fold(&g), h.Text(other); got != want {
				t.Fatalf("re-targeted fold of %q from %016x: %016x, byte loop %016x", other, uint64(h), uint64(got), uint64(want))
			}
		}
	})
}

// TestSegmentEveryLowByte folds one segment from 512 states covering
// every low byte twice with different high bits, so every table entry is
// computed once and then reused.
func TestSegmentEveryLowByte(t *testing.T) {
	text := []byte(" DatatypeLookups:")
	var g Segment
	g.Set(text)
	for i := 0; i < 512; i++ {
		h := Hash(i) * 0x9e37_79b9_7f4a_7c15
		if got, want := h.Fold(&g), h.Text(text); got != want {
			t.Fatalf("state %016x: fold %016x, byte loop %016x", uint64(h), uint64(got), uint64(want))
		}
	}
	if g.filled != [4]uint64{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)} {
		t.Fatalf("512 states left table bits %x unfilled", g.filled)
	}
}

// hashSink keeps the benchmark loops' results alive.
var hashSink Hash

// BenchmarkContentHash documents what the zero-run kernel buys and what
// it may not cost. sparse is a state page as every workload leaves it —
// 23 eight-byte markers in 4 KiB of zeros; dense has no zero byte. Each
// runs through the kernel and through the byte loop it replaced: sparse
// 5.9 us -> under 1 us, dense within 10 % of the byte loop (2-CPU Xeon
// 2.1 GHz).
func BenchmarkContentHash(b *testing.B) {
	sparse, dense := new([page]byte), new([page]byte)
	for i := 0; i < 23; i++ {
		binary.LittleEndian.PutUint64(sparse[i*176:], uint64(i)+1)
	}
	for i := range dense {
		dense[i] = byte(i%255) + 1
	}
	for _, pg := range []struct {
		name string
		p    *[page]byte
	}{{"sparse", sparse}, {"dense", dense}} {
		for _, fn := range []struct {
			suffix string
			hash   func(Hash, []byte) Hash
		}{{"", Hash.Bytes}, {"-byteloop", Hash.Text}} {
			b.Run(pg.name+fn.suffix, func(b *testing.B) {
				if Offset.Bytes(pg.p[:]) != Offset.Text(pg.p[:]) {
					b.Fatal("kernel and byte loop disagree")
				}
				b.SetBytes(int64(page))
				for i := 0; i < b.N; i++ {
					hashSink += fn.hash(Offset, pg.p[:])
				}
			})
		}
	}
}
