package memsim

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"

	"mana/internal/fnv1a"
)

// checkKernel hashes data through consecutive fnv1a Bytes calls split at
// cuts (each the length of the next chunk, clipped to what is left) and
// compares against hash/fnv and the byte loop over the whole of it.
func checkKernel(t *testing.T, data []byte, cuts []int) {
	t.Helper()
	ref := fnv.New64a()
	ref.Write(data)
	h, rest := fnv1a.Offset, data
	for _, c := range cuts {
		n := min(max(c, 0), len(rest))
		h = h.Bytes(rest[:n])
		rest = rest[n:]
	}
	h = h.Bytes(rest)
	if uint64(h) != ref.Sum64() {
		t.Fatalf("%d bytes split at %v: kernel %016x, hash/fnv %016x", len(data), cuts, uint64(h), ref.Sum64())
	}
	if loop := fnv1a.Offset.Text(data); loop != h {
		t.Fatalf("%d bytes split at %v: kernel %016x, byte loop %016x", len(data), cuts, uint64(h), uint64(loop))
	}
}

// zerosThen returns n zero bytes followed by tail.
func zerosThen(n int, tail ...byte) []byte {
	return append(make([]byte, n), tail...)
}

// TestFNVKernelEdges drives the shared FNV-1a kernel over the page-shaped
// inputs every content hash here hands it: the boundaries its word scan,
// 32-byte zero blocks, page-long power table and chunked calls each
// introduce. fnv1a.FuzzFNVKernel attacks the same kernel with arbitrary
// bytes.
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
