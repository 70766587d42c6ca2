package memsim

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"
)

// byteLoop is FNV-1a one byte at a time: what fnv64a.bytes was before it
// learned to skip zero runs, kept here as the second oracle (beside
// hash/fnv) and as the benchmark's baseline.
func (h fnv64a) byteLoop(p []byte) fnv64a {
	for _, c := range p {
		h = (h ^ fnv64a(c)) * fnvPrime
	}
	return h
}

// checkKernel hashes data through consecutive bytes calls split at cuts
// (each the length of the next chunk, clipped to what is left) and
// compares against hash/fnv and the byte loop over the whole of it.
func checkKernel(t *testing.T, data []byte, cuts []int) {
	t.Helper()
	ref := fnv.New64a()
	ref.Write(data)
	h, rest := fnvOffset, data
	for _, c := range cuts {
		n := min(max(c, 0), len(rest))
		h = h.bytes(rest[:n])
		rest = rest[n:]
	}
	h = h.bytes(rest)
	if uint64(h) != ref.Sum64() {
		t.Fatalf("%d bytes split at %v: kernel %016x, hash/fnv %016x", len(data), cuts, uint64(h), ref.Sum64())
	}
	if loop := fnvOffset.byteLoop(data); loop != h {
		t.Fatalf("%d bytes split at %v: kernel %016x, byte loop %016x", len(data), cuts, uint64(h), uint64(loop))
	}
}

// zerosThen returns n zero bytes followed by tail.
func zerosThen(n int, tail ...byte) []byte {
	return append(make([]byte, n), tail...)
}

// TestFNVKernelEdges drives the kernel over the boundaries its word scan,
// 32-byte zero blocks, power table and chunked calls each introduce.
func TestFNVKernelEdges(t *testing.T) {
	dense := bytes.Repeat([]byte{0xa5, 0x01, 0xff, 0x80}, 3*PageSize/4)
	marker := func(n, at int, v uint64) []byte {
		b := make([]byte, n)
		binary.LittleEndian.PutUint64(b[at:], v)
		return b
	}
	cases := []struct {
		name string
		data []byte
		cuts []int
	}{
		{"empty", nil, nil},
		{"one zero", []byte{0}, nil},
		{"one byte", []byte{7}, nil},
		{"seven bytes", []byte{1, 0, 0, 2, 0, 0, 3}, nil},
		{"zero tail shorter than a word", zerosThen(5), nil},
		{"word with high zero bytes", []byte{9, 0, 0, 0, 0, 0, 0, 0}, nil},
		{"word with low zero bytes", []byte{0, 0, 0, 0, 0, 0, 0, 9}, nil},
		{"word with a zero in the middle", []byte{1, 2, 0, 0, 0, 3, 0, 0, 4}, nil},
		{"run ends mid-word", zerosThen(13, 0xee, 0, 0, 1), nil},
		{"run of 31, 32, 33, 39, 40, 41", bytes.Join([][]byte{
			zerosThen(31, 1), zerosThen(32, 2), zerosThen(33, 3), zerosThen(39, 4), zerosThen(40, 5), zerosThen(41, 6)}, nil), nil},
		{"zero page", make([]byte, PageSize), nil},
		{"zero page less one", make([]byte, PageSize-1), nil},
		{"zero page plus one", make([]byte, PageSize+1), nil},
		{"run exactly the table", zerosThen(PageSize, 1), nil},
		{"run one past the table", zerosThen(PageSize+1, 1), nil},
		{"run of many pages", zerosThen(5*PageSize+3, 1, 2, 3), nil},
		{"run straddling a page boundary", append(marker(PageSize-24, 0, 1), marker(64, 48, 2)...), nil},
		{"marker in the first word", marker(PageSize, 0, 0x0102), nil},
		{"marker in the last word", marker(PageSize, PageSize-8, 1<<63), nil},
		{"unaligned marker", marker(PageSize, 1001, 0xdeadbeef), nil},
		{"dense", dense, nil},
		{"dense, odd length", dense[:len(dense)-3], nil},
		{"dense split into odd chunks", dense, []int{1, 7, 8, 9, 4095, 4097, 3}},
		{"zeros split mid-run", make([]byte, 3*PageSize), []int{3, 5, PageSize, 1, PageSize + 7}},
		{"run split across calls, then data", zerosThen(100, 5, 0, 0, 6), []int{33, 33, 33}},
		{"empty chunks", []byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 2}, []int{0, 0, 4, 0, 5, 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkKernel(t, tc.data, tc.cuts) })
	}
	// The shape every simulated page has: a few 8-byte markers in zeros,
	// at every alignment of the slice itself.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		buf := make([]byte, 8+PageSize+rng.Intn(2*PageSize))
		for m := rng.Intn(24); m > 0; m-- {
			binary.LittleEndian.PutUint64(buf[rng.Intn(len(buf)-8):], rng.Uint64()>>uint(rng.Intn(64)))
		}
		checkKernel(t, buf[rng.Intn(8):], []int{rng.Intn(PageSize), rng.Intn(PageSize)})
	}
}

// FuzzFNVKernel: arbitrary bytes with a zero run of arbitrary length (up
// to three pages, so longer than the power table) spliced in at an
// arbitrary offset, fed to the kernel in arbitrary consecutive chunks,
// must hash exactly as hash/fnv and the byte loop hash the whole.
func FuzzFNVKernel(f *testing.F) {
	f.Add([]byte{}, []byte{}, uint16(0), uint16(0))
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 2}, []byte{3}, uint16(4), uint16(PageSize))
	f.Add(bytes.Repeat([]byte{0, 0, 0, 7}, 40), []byte{1, 2, 3, 250}, uint16(77), uint16(3*PageSize-1))
	f.Add(bytes.Repeat([]byte{0xff}, 100), []byte{8, 8, 8}, uint16(50), uint16(PageSize+1))
	f.Fuzz(func(t *testing.T, data, chunks []byte, at, run uint16) {
		cut := min(int(at), len(data))
		zeros := int(run) % (3 * PageSize)
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

// hashSink keeps the benchmark loops' results alive.
var hashSink fnv64a

// BenchmarkContentHash documents what the zero-run kernel buys and what
// it may not cost. sparse is a state page as every workload leaves it —
// 23 eight-byte markers in 4 KiB of zeros; dense has no zero byte. Each
// runs through the kernel and through the byte loop it replaced: sparse
// 5.9 us -> under 1 us, dense within 10 % of the byte loop (2-CPU Xeon
// 2.1 GHz).
func BenchmarkContentHash(b *testing.B) {
	sparse, dense := new([PageSize]byte), new([PageSize]byte)
	for i := 0; i < 23; i++ {
		binary.LittleEndian.PutUint64(sparse[i*176:], uint64(i)+1)
	}
	for i := range dense {
		dense[i] = byte(i%255) + 1
	}
	for _, pg := range []struct {
		name string
		p    *[PageSize]byte
	}{{"sparse", sparse}, {"dense", dense}} {
		for _, fn := range []struct {
			suffix string
			hash   func(fnv64a, []byte) fnv64a
		}{{"", fnv64a.bytes}, {"-byteloop", fnv64a.byteLoop}} {
			b.Run(pg.name+fn.suffix, func(b *testing.B) {
				if fnvOffset.bytes(pg.p[:]) != fnvOffset.byteLoop(pg.p[:]) {
					b.Fatal("kernel and byte loop disagree")
				}
				b.SetBytes(PageSize)
				for i := 0; i < b.N; i++ {
					hashSink += fn.hash(fnvOffset, pg.p[:])
				}
			})
		}
	}
}
