package fnv1a

// Segment is a fixed byte string S made ready to fold in O(1). XOR with
// a byte touches only the low 8 bits of the state, and the low 8 bits of
// (h XOR c) * prime depend on nothing above them, so the low byte l of
// the incoming state decides every XOR of the fold and the rest of the
// state is only ever multiplied. Folding the n bytes of S is therefore
// the affine map
//
//	fold(h, S) = prime^n * h + K[l],  K[l] = fold(l, S) - prime^n * l  (mod 2^64)
//
// with one 256-entry table per string. The zero-run identity Zeros uses
// is the case S = n zero bytes, where K is zero.
//
// K[l] is computed the first time a state with low byte l folds the
// segment, one byte loop over S, so a segment never costs much more than
// folding its bytes. A segment from NewSegment has every entry computed
// and is read-only: any number of goroutines may fold it at once. One
// from Set fills its table as it is folded and belongs to one goroutine.
type Segment struct {
	text   []byte
	pow    Hash      // prime^len(text), once an entry is filled
	filled [4]uint64 // bit l: k[l] is computed
	k      [256]Hash
}

// NewSegment returns the segment for s with its whole table computed.
func NewSegment(s string) *Segment {
	g := &Segment{text: []byte(s), pow: Hash(1).Zeros(uint64(len(s)))}
	// Byte-major, so the 256 chains are independent multiplies.
	for l := range g.k {
		g.k[l] = Hash(l)
	}
	for _, c := range g.text {
		for l := range g.k {
			g.k[l] = (g.k[l] ^ Hash(c)) * prime
		}
	}
	for l := range g.k {
		g.k[l] -= g.pow * Hash(l)
	}
	g.filled = [4]uint64{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
	return g
}

// Set makes g stand for a copy of text, with an empty table. The zero
// Segment stands for the empty string.
func (g *Segment) Set(text []byte) {
	g.text = append(g.text[:0], text...)
	g.filled = [4]uint64{}
}

// Text returns the string g stands for; the caller must not modify it.
func (g *Segment) Text() []byte { return g.text }

// Fold folds in g's string.
func (h Hash) Fold(g *Segment) Hash {
	l := uint8(h)
	if g.filled[l>>6]&(1<<(l&63)) == 0 {
		g.fill(l)
	}
	return h*g.pow + g.k[l]
}

// fill computes K[l], and prime^n with it: pow is valid once any entry is.
func (g *Segment) fill(l uint8) {
	g.pow = Hash(1).Zeros(uint64(len(g.text)))
	g.k[l] = Hash(l).Text(g.text) - g.pow*Hash(l)
	g.filled[l>>6] |= 1 << (l & 63)
}
