package fnv1a

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math/rand"
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

// TestWordIsInvertible undoes Word from its result and v, for states and
// words with one bit set, every bit set and random ones: Word is a
// bijection of the state, which is what makes a digest folded from words
// change whenever any one word does.
func TestWordIsInvertible(t *testing.T) {
	// Newton's iteration for the inverse of the odd multiplier mod 2^64:
	// each step doubles the correct low bits, from 3 (m*m = 1 mod 8).
	inv := wordMul
	for i := 0; i < 5; i++ {
		inv *= 2 - wordMul*inv
	}
	if wordMul*inv != 1 {
		t.Fatalf("no inverse found for %016x", uint64(wordMul))
	}
	undo := func(h Hash, v uint64) Hash {
		y := h ^ h>>32
		return y*inv ^ Hash(v)
	}
	rng := rand.New(rand.NewSource(1))
	values := []uint64{0, ^uint64(0), 1 << 63}
	for i := 0; i < 64; i++ {
		values = append(values, 1<<i, rng.Uint64())
	}
	for _, h := range values {
		for _, v := range values {
			if got := undo(Hash(h).Word(v), v); got != Hash(h) {
				t.Fatalf("Word(%016x) from %016x undoes to %016x", v, h, uint64(got))
			}
		}
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
