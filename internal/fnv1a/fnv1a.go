// Package fnv1a is the one 64-bit FNV-1a implementation every content
// hash and fingerprint in the simulator goes through. It is written out
// rather than taken from hash/fnv for what repeats: zero runs, and
// records folded as whole words.
//
// FNV-1a folds a byte c in as h = (h XOR c) * prime (mod 2^64), so a zero
// byte is one multiply and a run of n zero bytes is h * prime^n: Bytes
// and Zeros fold a run of any length as one multiply, bit-identical to
// hashing the same bytes one at a time. Word is not FNV-1a: it folds a
// 64-bit value in one step, for digests of fixed-width records rather
// than of bytes.
package fnv1a

import "encoding/binary"

// Hash is an FNV-1a state. Each method returns the state after folding
// in its argument; Offset is the state before any byte.
type Hash uint64

const (
	Offset Hash = 14695981039346656037
	prime  Hash = 1099511628211
	// wordMul is Word's multiplier: odd, with set bits spread across the
	// word (2^64 over the golden ratio).
	wordMul Hash = 0x9e3779b97f4a7c15
)

// zeroPow[n] is prime^n mod 2^64: the factor n zero bytes fold in as, for
// every run up to a 4 KiB page. Written once by init, read-only after.
var zeroPow [4096 + 1]Hash

func init() {
	zeroPow[0] = 1
	for n := 1; n < len(zeroPow); n++ {
		zeroPow[n] = zeroPow[n-1] * prime
	}
}

// Byte folds in one byte.
func (h Hash) Byte(c byte) Hash { return (h ^ Hash(c)) * prime }

// Str folds in s one byte at a time.
func (h Hash) Str(s string) Hash {
	for i := 0; i < len(s); i++ {
		h = (h ^ Hash(s[i])) * prime
	}
	return h
}

// Text folds in p one byte at a time: for text, which has no zero runs
// for Bytes to skip.
func (h Hash) Text(p []byte) Hash {
	for _, c := range p {
		h = (h ^ Hash(c)) * prime
	}
	return h
}

// Bytes folds in p. It reads p in 8-byte words: a zero word only
// lengthens the pending zero run (whole 32-byte blocks of zeros at a time
// once inside one), and a run is folded in as a single multiply when the
// next non-zero byte — or the end of p — is reached. A non-zero word is
// folded byte by byte from the loaded word up to its last non-zero byte;
// its high zero bytes start the next run. Data without zeros pays the one
// multiply per byte FNV-1a asks for.
func (h Hash) Bytes(p []byte) Hash {
	var run uint64
	for len(p) >= 8 {
		w := binary.LittleEndian.Uint64(p)
		p = p[8:]
		if w == 0 {
			run += 8
			for len(p) >= 32 && binary.LittleEndian.Uint64(p)|binary.LittleEndian.Uint64(p[8:])|
				binary.LittleEndian.Uint64(p[16:])|binary.LittleEndian.Uint64(p[24:]) == 0 {
				run += 32
				p = p[32:]
			}
			continue
		}
		if run != 0 {
			h = h.Zeros(run)
		}
		run = 8
		for ; w != 0; w >>= 8 {
			h = (h ^ Hash(w&0xff)) * prime
			run--
		}
	}
	h = h.Zeros(run)
	for _, c := range p {
		h = (h ^ Hash(c)) * prime
	}
	return h
}

// U64 folds in v as eight little-endian bytes: byte by byte up to its
// last non-zero byte, the zero bytes above that as one run. Most of what
// it is handed — lengths, tags, sizes — is mostly zeros.
func (h Hash) U64(v uint64) Hash {
	run := 8
	for ; v != 0; v >>= 8 {
		h = (h ^ Hash(v&0xff)) * prime
		run--
	}
	return h * zeroPow[run]
}

// Word folds in v as one 64-bit unit: XOR, a multiply by an odd
// constant, and a shift that carries the high half back down. Each step
// is a bijection of the state, so two folds that differ in one word end
// in different states whatever is folded after it, and the high bits of
// v reach the low bits of the state within a word or two.
func (h Hash) Word(v uint64) Hash {
	h = (h ^ Hash(v)) * wordMul
	return h ^ h>>32
}

// Zeros folds in n zero bytes: h * prime^n, from the power table for a
// run that fits a page and by square-and-multiply beyond it.
func (h Hash) Zeros(n uint64) Hash {
	if n < uint64(len(zeroPow)) {
		return h * zeroPow[n]
	}
	for p := prime; n != 0; n >>= 1 {
		if n&1 != 0 {
			h *= p
		}
		p *= p
	}
	return h
}
