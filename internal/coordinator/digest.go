package coordinator

import (
	"strconv"

	"mana/internal/memsim"
	"mana/internal/rank"
	"mana/internal/vtime"
)

// The fingerprint digests are FNV hashes over text. The text is the
// contract — every recorded fingerprint depends on it byte for byte — but
// rendering it through fmt cost more than hashing it, so it is appended
// with strconv into a buffer the coordinator reuses, and the two segments
// that repeat from image to image are appended as bytes: a delta region's
// head (regionHeads) and the handle table (virtid.Snapshot.AppendText).
// digest_test.go keeps the fmt rendering as the reference and compares
// the two.

func appendInt[T ~int | ~int64](b []byte, v T) []byte { return strconv.AppendInt(b, int64(v), 10) }

func appendUint[T ~uint64](b []byte, v T) []byte { return strconv.AppendUint(b, uint64(v), 10) }

func appendHex[T ~uint64](b []byte, v T) []byte { return strconv.AppendUint(b, uint64(v), 16) }

// appendStats renders st exactly as fmt's %+v does: every field of
// rank.Stats in declaration order, durations through their String method.
func appendStats(b []byte, st *rank.Stats) []byte {
	count := func(name string, v uint64) {
		b = appendUint(append(b, name...), v)
	}
	dur := func(name string, v vtime.Duration) {
		b = append(append(b, name...), v.String()...)
	}
	count("{MPICalls:", st.MPICalls)
	count(" MsgsSent:", st.MsgsSent)
	count(" MsgsRecvd:", st.MsgsRecvd)
	count(" BytesSent:", st.BytesSent)
	count(" BytesRecvd:", st.BytesRecvd)
	count(" Collectives:", st.Collectives)
	count(" CommSplits:", st.CommSplits)
	dur(" ComputeTime:", st.ComputeTime)
	dur(" ManaOverhead:", st.ManaOverhead)
	count(" HandleLookups:", st.HandleLookups)
	count(" CommLookups:", st.CommLookups)
	count(" DatatypeLookups:", st.DatatypeLookups)
	count(" RequestLookups:", st.RequestLookups)
	count(" HandleWrites:", st.HandleWrites)
	dur(" LookupTime:", st.LookupTime)
	dur(" WriteTime:", st.WriteTime)
	return append(b, '}')
}

// regionHead is the rendered head of one delta region's digest segment —
// `rd("name",half,kind,addr,size,datalen` — beside the values it renders.
type regionHead struct {
	name                string
	half                memsim.Half
	kind                memsim.Kind
	addr, size, dataLen uint64
	text                []byte // empty until the slot is first rendered
}

// regionHeads caches those heads by the region's position in its delta.
// Every rank of a job lays its upper half out the same way and a layout
// changes only on sbrk or resize, so slot i nearly always holds exactly
// the head rank after rank asks for; a slot holding anything else is
// rendered over. Entries are pure functions of the values stored beside
// them, so the table outlives its run through Scratch.
type regionHeads []regionHead

// append appends the head of rd, the i-th region of its delta.
func (t *regionHeads) append(b []byte, i int, rd *memsim.RegionDelta) []byte {
	for i >= len(*t) {
		*t = append(*t, regionHead{})
	}
	e := &(*t)[i]
	if len(e.text) == 0 || e.addr != rd.Addr || e.size != rd.Size || e.dataLen != rd.DataLen ||
		e.half != rd.Half || e.kind != rd.Kind || e.name != rd.Name {
		e.name, e.half, e.kind, e.addr, e.size, e.dataLen = rd.Name, rd.Half, rd.Kind, rd.Addr, rd.Size, rd.DataLen
		e.text = strconv.AppendQuote(append(e.text[:0], "rd("...), rd.Name)
		e.text = appendInt(append(e.text, ','), rd.Half)
		e.text = appendInt(append(e.text, ','), rd.Kind)
		e.text = appendHex(append(e.text, ','), rd.Addr)
		e.text = appendUint(append(e.text, ','), rd.Size)
		e.text = appendUint(append(e.text, ','), rd.DataLen)
	}
	return append(b, e.text...)
}

// appendImageDigest renders what one image contributes to its
// checkpoint's fingerprint. Every payload iterated here is sorted by
// construction (regions by address, pages by index, virtid entries by
// virtual id), so the digest is deterministic across runs.
func (t *regionHeads) appendImageDigest(b []byte, img *rank.Image) []byte {
	if !img.Complete {
		// A torn image digests its partial size so two runs of the same
		// fault plan fingerprint identically while differing from the
		// clean image. Content hashes below come from the capture-time
		// memos either way.
		b = appendUint(append(b, "torn("...), img.WrittenBytes)
		b = appendUint(append(b, '/'), img.Bytes())
		b = append(b, ");"...)
	}
	b = appendInt(b, img.RankID)
	b = appendInt(append(b, ':'), img.PC)
	b = appendInt(append(b, ':'), img.Clock)
	if img.Full {
		b = appendHex(append(b, ':'), img.Mem.Fingerprint())
	} else {
		b = appendInt(append(b, ":delta("...), img.Seq)
		b = appendInt(append(b, "<-"...), img.Base)
		b = appendHex(append(b, ",brk="...), img.Delta.Brk)
		b = append(b, ')')
	}
	b = append(appendStats(append(b, ':'), &img.Stats), ';')
	if !img.Full {
		for i := range img.Delta.Regions {
			rd := &img.Delta.Regions[i]
			b = t.append(b, i, rd)
			for pi := range rd.Pages {
				b = appendInt(append(b, ','), rd.Pages[pi].Index)
				b = appendHex(append(b, '='), rd.Pages[pi].Hash)
			}
			b = append(b, ");"...)
		}
	}
	for i := range img.Inbox {
		m := &img.Inbox[i]
		b = appendInt(append(b, "in("...), m.Src)
		b = appendInt(append(b, ','), m.Dst)
		b = appendInt(append(b, ','), m.Tag)
		b = appendUint(append(b, ','), m.Bytes)
		b = appendInt(append(b, ','), m.Arrive)
		b = append(b, ");"...)
	}
	b = img.Virt.AppendText(b)
	for _, req := range img.PendingReqs {
		b = appendUint(append(b, "pr("...), req)
		b = append(b, ");"...)
	}
	for i := range img.Comms {
		b = appendInt(append(b, "cm("...), i)
		b = appendUint(append(b, ','), img.Comms[i])
		b = appendInt(append(b, ','), img.CommIDs[i])
		b = append(b, ");"...)
	}
	return b
}

// appendFinalDigest renders what one rank contributes to the final
// fingerprint: its id, final clock and upper-half memory fingerprint.
func appendFinalDigest(b []byte, r *rank.Rank) []byte {
	b = appendInt(b, r.ID())
	b = appendInt(append(b, ':'), r.Clock().Now())
	b = appendHex(append(b, ':'), r.Mem().Fingerprint())
	return append(b, ';')
}
