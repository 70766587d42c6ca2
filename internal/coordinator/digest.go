package coordinator

import (
	"strconv"

	"mana/internal/fnv1a"
	"mana/internal/memsim"
	"mana/internal/rank"
)

// A checkpoint's fingerprint folds its link's images in rank order, each
// as fixed-width words through fnv1a's Word: the image record's scalar
// fields, then each payload as a 64-bit content hash that was computed
// once, when the payload was made, and travels with it — the memory
// snapshot's Fingerprint, the handle table's and the counters' Hash, a
// delta page's Hash. What repeats from image to image within a run but
// is carried by no payload, a delta region's head, is hashed once per
// slot (digester.heads). Every list folds its length first, so the
// words an image folds decode to that image alone. digest_test.go checks
// that every field of the image and of what it points at reaches the
// fingerprint, or is named there as not checkpoint state.
//
// The final fingerprint keeps its text contract: foldFinal folds the
// bytes fmt would render, numbers in decimal by foldDec and in hex by
// strconv, one byte at a time.

func foldInt[T ~int | ~int64](h fnv1a.Hash, v T) fnv1a.Hash {
	if v < 0 {
		return foldDec(h.Byte('-'), -uint64(v))
	}
	return foldDec(h, uint64(v))
}

// foldDec folds in v in decimal, as strconv renders it: the digits are
// produced two at a time from the low end into a stack buffer, then
// folded in from the high end.
func foldDec(h fnv1a.Hash, v uint64) fnv1a.Hash {
	if v < 10 {
		return h.Byte('0' + byte(v))
	}
	var buf [20]byte
	i := len(buf)
	for v >= 100 {
		d := v % 100 * 2
		v /= 100
		i -= 2
		buf[i], buf[i+1] = digitPairs[d], digitPairs[d+1]
	}
	if v >= 10 {
		i -= 2
		buf[i], buf[i+1] = digitPairs[v*2], digitPairs[v*2+1]
	} else {
		i--
		buf[i] = '0' + byte(v)
	}
	return h.Text(buf[i:])
}

const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

func foldHex[T ~uint64](h fnv1a.Hash, v T) fnv1a.Hash {
	var buf [16]byte
	return h.Text(strconv.AppendUint(buf[:0], uint64(v), 16))
}

// regionHead is one delta region's layout beside the word it hashes to.
type regionHead struct {
	name                string
	half                memsim.Half
	kind                memsim.Kind
	addr, size, dataLen uint64
	word                uint64
}

// digester folds checkpoint images into a fingerprint. heads caches
// delta-region heads by the region's position in its delta. Every rank
// of a job lays its upper half out the same way, and a layout only grows
// (an sbrk maps a region, a first write lengthens one's data), so slot i
// nearly always holds exactly the head rank after rank asks for; a slot
// holding anything else is hashed over. Every entry is a pure function
// of the layout stored with it, and none keeps a payload alive. A
// digester lives and dies with its run.
type digester struct {
	heads []regionHead
}

// slots returns the first n head slots, growing the cache to n.
func (d *digester) slots(n int) []regionHead {
	for n > len(d.heads) {
		d.heads = append(d.heads, regionHead{})
	}
	return d.heads[:n]
}

// holds reports whether e is the head of rd. It is the hit path, called
// for every region of every delta image, and small enough to inline.
func (e *regionHead) holds(rd *memsim.RegionDelta) bool {
	return e.word != 0 && e.addr == rd.Addr && e.size == rd.Size && e.dataLen == rd.DataLen &&
		e.half == rd.Half && e.kind == rd.Kind && e.name == rd.Name
}

// set makes e the head of rd and hashes it.
func (e *regionHead) set(rd *memsim.RegionDelta) {
	e.name, e.half, e.kind, e.addr, e.size, e.dataLen = rd.Name, rd.Half, rd.Kind, rd.Addr, rd.Size, rd.DataLen
	h := fnv1a.Offset.Word(uint64(len(rd.Name))).Str(rd.Name)
	e.word = uint64(h.Word(uint64(rd.Half)).Word(uint64(rd.Kind)).Word(rd.Addr).Word(rd.Size).Word(rd.DataLen))
}

// image folds in what one image contributes to its checkpoint's
// fingerprint: the word its record, its memory and its small state hash
// to, each from the offset basis. The three chains do not depend on each
// other or on h, so the CPU folds them side by side and runs ahead into
// the next image; a chain of words is one multiply's latency per word.
// Every payload iterated here is sorted by construction (regions by
// address, pages by index), so the digest is deterministic across runs.
// A torn image folds its flags and partial size, so two runs of the same
// fault plan fingerprint identically while differing from the clean
// image; its content hashes are the capture's either way.
func (d *digester) image(h fnv1a.Hash, img *rank.Image) fnv1a.Hash {
	var flags uint64
	if img.Full {
		flags |= 1
	}
	if img.Complete {
		flags |= 2
	}
	rec := fnv1a.Offset.Word(uint64(img.RankID)).Word(uint64(img.PC)).Word(uint64(img.Clock)).
		Word(uint64(img.Seq)).Word(uint64(img.Base)).Word(flags).Word(img.WrittenBytes)
	var mem fnv1a.Hash
	if img.Full {
		mem = fnv1a.Offset.Word(img.Mem.Fingerprint())
	} else {
		// Region heads and carried pages fold as two chains as well.
		regions := img.Delta.Regions
		heads, pages := fnv1a.Offset.Word(img.Delta.Brk).Word(uint64(len(regions))), fnv1a.Offset
		slots := d.slots(len(regions))
		for i := range slots {
			e, rd := &slots[i], &regions[i]
			if !e.holds(rd) {
				e.set(rd)
			}
			heads = heads.Word(e.word)
			pages = pages.Word(uint64(len(rd.Pages)))
			for pi := range rd.Pages {
				pages = pages.Word(uint64(rd.Pages[pi].Index)).Word(rd.Pages[pi].Hash)
			}
		}
		mem = heads.Word(uint64(pages))
	}
	small := fnv1a.Offset.Word(img.Stats.Hash()).Word(img.Virt.Hash()).Word(uint64(len(img.Inbox)))
	for i := range img.Inbox {
		m := &img.Inbox[i]
		small = small.Word(m.Seq).Word(uint64(m.Src)).Word(uint64(m.Dst)).Word(uint64(m.Tag)).Word(m.Bytes).
			Word(uint64(m.Sent.Rank)).Word(uint64(m.Sent.When)).Word(uint64(m.Arrive))
	}
	small = small.Word(uint64(len(img.PendingReqs)))
	for _, req := range img.PendingReqs {
		small = small.Word(uint64(req))
	}
	small = small.Word(uint64(len(img.Comms)))
	for i := range img.Comms {
		small = small.Word(uint64(img.Comms[i])).Word(uint64(img.CommIDs[i]))
	}
	return h.Word(uint64(rec)).Word(uint64(mem)).Word(uint64(small))
}

// foldFinal folds in what one rank contributes to the final fingerprint:
// its id, final clock and upper-half memory fingerprint, taken with the
// owed state markers laid over *scratch instead of written
// (rank.MemFingerprint): a finished rank's markers would otherwise
// materialise pages only to be hashed once.
func foldFinal(h fnv1a.Hash, r *rank.Rank, scratch *[]byte) fnv1a.Hash {
	h = foldInt(h, r.ID())
	h = foldInt(h.Byte(':'), r.Clock().Now())
	h = foldHex(h.Byte(':'), r.MemFingerprint(scratch))
	return h.Byte(';')
}
