package coordinator

import (
	"bytes"
	"strconv"

	"mana/internal/fnv1a"
	"mana/internal/memsim"
	"mana/internal/rank"
	"mana/internal/vtime"
)

// The fingerprint digests are FNV-1a hashes over text. The text is the
// contract — every recorded fingerprint depends on it byte for byte — but
// it is never rendered whole: each piece is folded straight into the hash
// through the shared kernel (internal/fnv1a). Numbers are rendered into a
// stack buffer (decimal by foldDec, hex by strconv) and folded byte by
// byte. The strings that repeat from image to image fold as fnv1a
// Segments, one multiply and one table load each whatever their length:
// the sixteen rank.Stats labels (statLabels), a delta region's head
// (digester.heads) and the handle table's text (digester.virt).
// digest_test.go keeps the fmt rendering as the reference and compares
// the hashes.

func foldInt[T ~int | ~int64](h fnv1a.Hash, v T) fnv1a.Hash {
	if v < 0 {
		return foldDec(h.Byte('-'), -uint64(v))
	}
	return foldDec(h, uint64(v))
}

func foldUint[T ~uint64](h fnv1a.Hash, v T) fnv1a.Hash { return foldDec(h, uint64(v)) }

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

func foldDur(h fnv1a.Hash, d vtime.Duration) fnv1a.Hash { return h.Str(d.String()) }

// statLabels are the labels fmt's %+v prints before each field of
// rank.Stats, in declaration order. Their tables are computed at init and
// only read after, so every run in the process folds them.
var statLabels = [...]*fnv1a.Segment{
	fnv1a.NewSegment("{MPICalls:"),
	fnv1a.NewSegment(" MsgsSent:"),
	fnv1a.NewSegment(" MsgsRecvd:"),
	fnv1a.NewSegment(" BytesSent:"),
	fnv1a.NewSegment(" BytesRecvd:"),
	fnv1a.NewSegment(" Collectives:"),
	fnv1a.NewSegment(" CommSplits:"),
	fnv1a.NewSegment(" ComputeTime:"),
	fnv1a.NewSegment(" ManaOverhead:"),
	fnv1a.NewSegment(" HandleLookups:"),
	fnv1a.NewSegment(" CommLookups:"),
	fnv1a.NewSegment(" DatatypeLookups:"),
	fnv1a.NewSegment(" RequestLookups:"),
	fnv1a.NewSegment(" HandleWrites:"),
	fnv1a.NewSegment(" LookupTime:"),
	fnv1a.NewSegment(" WriteTime:"),
}

// foldStats folds st in exactly as fmt's %+v renders it: every field of
// rank.Stats in declaration order, durations through their String method.
func foldStats(h fnv1a.Hash, st *rank.Stats) fnv1a.Hash {
	l := &statLabels
	h = foldUint(h.Fold(l[0]), st.MPICalls)
	h = foldUint(h.Fold(l[1]), st.MsgsSent)
	h = foldUint(h.Fold(l[2]), st.MsgsRecvd)
	h = foldUint(h.Fold(l[3]), st.BytesSent)
	h = foldUint(h.Fold(l[4]), st.BytesRecvd)
	h = foldUint(h.Fold(l[5]), st.Collectives)
	h = foldUint(h.Fold(l[6]), st.CommSplits)
	h = foldDur(h.Fold(l[7]), st.ComputeTime)
	h = foldDur(h.Fold(l[8]), st.ManaOverhead)
	h = foldUint(h.Fold(l[9]), st.HandleLookups)
	h = foldUint(h.Fold(l[10]), st.CommLookups)
	h = foldUint(h.Fold(l[11]), st.DatatypeLookups)
	h = foldUint(h.Fold(l[12]), st.RequestLookups)
	h = foldUint(h.Fold(l[13]), st.HandleWrites)
	h = foldDur(h.Fold(l[14]), st.LookupTime)
	h = foldDur(h.Fold(l[15]), st.WriteTime)
	return h.Byte('}')
}

// regionHead is one delta region's digest head —
// `rd("name",half,kind,addr,size,datalen` — as a segment, beside the
// values it renders.
type regionHead struct {
	name                string
	half                memsim.Half
	kind                memsim.Kind
	addr, size, dataLen uint64
	seg                 fnv1a.Segment // empty until the slot is first rendered
}

// digester folds checkpoint images into a fingerprint. It keeps, as
// segments, the text that repeats from image to image within a run:
//
//   - heads caches delta-region heads by the region's position in its
//     delta. Every rank of a job lays its upper half out the same way and
//     a layout changes only on sbrk or resize, so slot i nearly always
//     holds exactly the head rank after rank asks for; a slot holding
//     anything else is rendered over and its table starts empty.
//   - virt is the last handle-table text seen. Ranks that minted the same
//     handles share it, and a text that differs replaces it.
//
// Every entry is a pure function of the text stored with it. A
// digester lives and dies with its run.
type digester struct {
	heads []regionHead
	virt  fnv1a.Segment
	buf   []byte // where a head is rendered before it is Set
}

// head folds in the head of rd, the i-th region of its delta.
func (d *digester) head(h fnv1a.Hash, i int, rd *memsim.RegionDelta) fnv1a.Hash {
	for i >= len(d.heads) {
		d.heads = append(d.heads, regionHead{})
	}
	e := &d.heads[i]
	if len(e.seg.Text()) == 0 || e.addr != rd.Addr || e.size != rd.Size || e.dataLen != rd.DataLen ||
		e.half != rd.Half || e.kind != rd.Kind || e.name != rd.Name {
		e.name, e.half, e.kind, e.addr, e.size, e.dataLen = rd.Name, rd.Half, rd.Kind, rd.Addr, rd.Size, rd.DataLen
		b := strconv.AppendQuote(append(d.buf[:0], "rd("...), rd.Name)
		b = strconv.AppendInt(append(b, ','), int64(rd.Half), 10)
		b = strconv.AppendInt(append(b, ','), int64(rd.Kind), 10)
		b = strconv.AppendUint(append(b, ','), rd.Addr, 16)
		b = strconv.AppendUint(append(b, ','), rd.Size, 10)
		d.buf = strconv.AppendUint(append(b, ','), rd.DataLen, 10)
		e.seg.Set(d.buf)
	}
	return h.Fold(&e.seg)
}

// image folds in what one image contributes to its checkpoint's
// fingerprint. Every payload iterated here is sorted by construction
// (regions by address, pages by index, virtid entries by virtual id), so
// the digest is deterministic across runs.
func (d *digester) image(h fnv1a.Hash, img *rank.Image) fnv1a.Hash {
	if !img.Complete {
		// A torn image digests its partial size so two runs of the same
		// fault plan fingerprint identically while differing from the
		// clean image. Content hashes below come from the capture-time
		// memos either way.
		h = foldUint(h.Str("torn("), img.WrittenBytes)
		h = foldUint(h.Byte('/'), img.Bytes())
		h = h.Str(");")
	}
	h = foldInt(h, img.RankID)
	h = foldInt(h.Byte(':'), img.PC)
	h = foldInt(h.Byte(':'), img.Clock)
	if img.Full {
		h = foldHex(h.Byte(':'), img.Mem.Fingerprint())
	} else {
		h = foldInt(h.Str(":delta("), img.Seq)
		h = foldInt(h.Str("<-"), img.Base)
		h = foldHex(h.Str(",brk="), img.Delta.Brk)
		h = h.Byte(')')
	}
	h = foldStats(h.Byte(':'), img.Stats).Byte(';')
	if !img.Full {
		for i := range img.Delta.Regions {
			rd := &img.Delta.Regions[i]
			h = d.head(h, i, rd)
			for pi := range rd.Pages {
				h = foldInt(h.Byte(','), rd.Pages[pi].Index)
				h = foldHex(h.Byte('='), rd.Pages[pi].Hash)
			}
			h = h.Str(");")
		}
	}
	for i := range img.Inbox {
		m := &img.Inbox[i]
		h = foldInt(h.Str("in("), m.Src)
		h = foldInt(h.Byte(','), m.Dst)
		h = foldInt(h.Byte(','), m.Tag)
		h = foldUint(h.Byte(','), m.Bytes)
		h = foldInt(h.Byte(','), m.Arrive)
		h = h.Str(");")
	}
	if text := img.Virt.Text(); !bytes.Equal(text, d.virt.Text()) {
		d.virt.Set(text)
	}
	h = h.Fold(&d.virt)
	for _, req := range img.PendingReqs {
		h = foldUint(h.Str("pr("), req)
		h = h.Str(");")
	}
	for i := range img.Comms {
		h = foldInt(h.Str("cm("), i)
		h = foldUint(h.Byte(','), img.Comms[i])
		h = foldInt(h.Byte(','), img.CommIDs[i])
		h = h.Str(");")
	}
	return h
}

// foldFinal folds in what one rank contributes to the final fingerprint:
// its id, final clock and upper-half memory fingerprint.
func foldFinal(h fnv1a.Hash, r *rank.Rank) fnv1a.Hash {
	h = foldInt(h, r.ID())
	h = foldInt(h.Byte(':'), r.Clock().Now())
	h = foldHex(h.Byte(':'), r.Mem().Fingerprint())
	return h.Byte(';')
}
