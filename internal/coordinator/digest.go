package coordinator

import (
	"strconv"

	"mana/internal/rank"
	"mana/internal/virtid"
	"mana/internal/vtime"
)

// The fingerprint digests are FNV hashes over text. The text is the
// contract — every recorded fingerprint depends on it byte for byte — but
// rendering it through fmt cost more than hashing it, so it is appended
// with strconv into a buffer the coordinator reuses. digest_test.go keeps
// the fmt rendering as the reference and compares the two.

func appendInt[T ~int | ~int64](b []byte, v T) []byte { return strconv.AppendInt(b, int64(v), 10) }

func appendUint[T ~uint64](b []byte, v T) []byte { return strconv.AppendUint(b, uint64(v), 10) }

func appendHex[T ~uint64](b []byte, v T) []byte { return strconv.AppendUint(b, uint64(v), 16) }

// appendStats renders st exactly as fmt's %+v does: every field of
// rank.Stats in declaration order, durations through their String method.
func appendStats(b []byte, st rank.Stats) []byte {
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

// appendImageDigest renders what one image contributes to its
// checkpoint's fingerprint. Every payload iterated here is sorted by
// construction (regions by address, pages by index, virtid entries by
// virtual id), so the digest is deterministic across runs.
func appendImageDigest(b []byte, img rank.Image) []byte {
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
	b = append(appendStats(append(b, ':'), img.Stats), ';')
	if !img.Full {
		for _, rd := range img.Delta.Regions {
			b = strconv.AppendQuote(append(b, "rd("...), rd.Name)
			b = appendInt(append(b, ','), rd.Half)
			b = appendInt(append(b, ','), rd.Kind)
			b = appendHex(append(b, ','), rd.Addr)
			b = appendUint(append(b, ','), rd.Size)
			b = appendUint(append(b, ','), rd.DataLen)
			for _, p := range rd.Pages {
				b = appendInt(append(b, ','), p.Index)
				b = appendHex(append(b, '='), p.Hash)
			}
			b = append(b, ");"...)
		}
	}
	for _, m := range img.Inbox {
		b = appendInt(append(b, "in("...), m.Src)
		b = appendInt(append(b, ','), m.Dst)
		b = appendInt(append(b, ','), m.Tag)
		b = appendUint(append(b, ','), m.Bytes)
		b = appendInt(append(b, ','), m.Arrive)
		b = append(b, ");"...)
	}
	for k := 0; k < virtid.NumKinds; k++ {
		b = appendInt(append(b, "vt("...), k)
		b = appendUint(append(b, ','), img.Virt.Next[k])
		for _, e := range img.Virt.Entries[k] {
			b = appendUint(append(b, ','), e.VID)
			b = appendHex(append(b, '='), e.Real)
		}
		b = append(b, ");"...)
	}
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
