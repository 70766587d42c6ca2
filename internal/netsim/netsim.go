// Package netsim models the point-to-point interconnect of the simulated
// MPI job in virtual time: MANA's lower-half network, which a checkpoint
// discards and a restart builds anew.
//
// The model is deliberately simple — a latency plus bandwidth-serialisation
// cost per message — because MANA is network-agnostic: the checkpointing
// algorithm only needs to know *when* a message becomes visible to its
// receiver and *how many* messages are in flight between each pair of
// ranks. Every message piggybacks the sender's virtual timestamp
// (vtime.Stamp) so the receiver can advance causally. The per-peer
// send/receive counts the draining algorithm (paper §3.1) compares are
// kept by the ranks, as MANA's upper-half wrappers keep them; the
// network holds only the messages in flight and how many there are, so
// a restart's network is built from its Params and the rank count alone.
//
// The network is passive: it never calls out. Each Send computes the
// message's arrival time, one Latency after the sender's link frees, and
// the caller that charged the link to the sender's clock turns that time
// into a virtual-time event of its own, so receivers are woken exactly
// when a matching message becomes visible instead of being polled.
//
// The network owns every message. A message is a value in its pair's
// FIFO ring, never a heap object of its own: Send and Recv hand out
// pointers to ring slots, and DrainTo copies messages out into a buffer
// the caller owns. A slot pointer is good for as long as the Network
// documents (the slot-lifetime contract); whatever outlives that keeps
// the fields it needs by value.
package netsim

import (
	"slices"

	"mana/internal/vtime"
)

// Params configures the interconnect cost model.
type Params struct {
	// Latency is the one-way wire latency of a message of any size.
	Latency vtime.Duration
	// BandwidthBytesPerSec is the serialisation bandwidth; a message of
	// size s occupies the sender for s/Bandwidth seconds before the wire
	// latency applies.
	BandwidthBytesPerSec float64
}

// DefaultParams resembles a commodity HPC fabric: ~1.5 us latency,
// ~10 GB/s per-link bandwidth.
func DefaultParams() Params {
	return Params{
		Latency:              1500 * vtime.Nanosecond,
		BandwidthBytesPerSec: 10e9,
	}
}

// SerializeCost returns the time a message of the given size occupies the
// sender's link.
func (p Params) SerializeCost(bytes uint64) vtime.Duration {
	if p.BandwidthBytesPerSec <= 0 {
		return 0
	}
	return vtime.DurationOf(float64(bytes) / p.BandwidthBytesPerSec)
}

// CollectiveKind identifies a modelled collective operation.
type CollectiveKind int

const (
	Barrier CollectiveKind = iota
	Allreduce
	// CommSplit is MPI_Comm_split: collective over the parent
	// communicator, exchanging each participant's colour so every member
	// learns its sub-communicator's composition.
	CommSplit
)

// String returns the MPI-style name of the collective.
func (k CollectiveKind) String() string {
	switch k {
	case Barrier:
		return "barrier"
	case Allreduce:
		return "allreduce"
	case CommSplit:
		return "comm-split"
	default:
		return "unknown"
	}
}

// commSplitColorBytes is the per-rank payload a comm-split exchanges: the
// (colour, key) pair every participant contributes to the allgather that
// establishes sub-communicator membership.
const commSplitColorBytes = 16

// CollectiveCost returns the modelled completion cost of a collective over
// nRanks ranks carrying bytes of payload per rank, measured from the
// moment the last participant arrives. All collectives use a
// logarithmic-depth tree; allreduce additionally pays reduce+broadcast
// serialisation, and comm-split the (small) colour allgather.
func (p Params) CollectiveCost(kind CollectiveKind, nRanks int, bytes uint64) vtime.Duration {
	depth := log2ceil(nRanks)
	cost := vtime.Duration(depth) * p.Latency
	switch kind {
	case Allreduce:
		cost += 2 * vtime.Duration(depth) * p.SerializeCost(bytes)
	case CommSplit:
		cost += vtime.Duration(depth) * p.SerializeCost(commSplitColorBytes*uint64(nRanks))
	}
	return cost
}

func log2ceil(n int) int {
	d := 0
	for v := 1; v < n; v <<= 1 {
		d++
	}
	return d
}

// Message is one in-flight point-to-point message. It holds no pointer,
// so the rings that store messages by value are never scanned by the
// collector.
type Message struct {
	// Seq is the message's send ordinal on its pair, so the first message
	// from Src to Dst is 1. The network leaves it 0: the sender stamps the
	// slot Send returns from its own count of the messages it sent Dst,
	// which a restarted rank continues from its image. It depends only on
	// the pair's own history — never on how sends on other pairs
	// interleave with it. Drain order does not read it: DrainTo orders by
	// source rank, then pair FIFO.
	Seq uint64
	// Src and Dst are rank IDs.
	Src, Dst int
	// Tag is the application-level message tag (carried for reporting).
	Tag int
	// Bytes is the payload size.
	Bytes uint64
	// Sent is the sender's piggybacked virtual timestamp at injection.
	Sent vtime.Stamp
	// Arrive is the virtual time at which the message is visible to the
	// receiver: send time + serialisation + latency.
	Arrive vtime.Time
}

// pairState is one directed pair's FIFO of in-flight messages, kept at
// its destination. The FIFO is a ring of message values over a
// power-of-two buffer, so a pair that is never fully drained still reuses
// its storage instead of creeping through a slice, and a send into a
// ring that is large enough allocates nothing. A Message holds no
// pointer, so neither does the ring: the collector never scans it.
//
// The ring keeps one slot of slack — push grows it before it would
// fill — so the slot pop just vacated is never the next one push
// writes. The slot-lifetime contract (see Network) rests on it: a
// message Recv returned stays intact until its receiver's next receive
// on the pair, even when the sender pushes the next message first.
type pairState struct {
	src  int
	buf  []Message
	head int // index of the oldest message in buf
	n    int // messages queued
}

// push appends m to the FIFO and returns its slot.
func (p *pairState) push(m Message) *Message {
	if p.n+1 >= len(p.buf) {
		grown := make([]Message, max(2, 2*len(p.buf)))
		for i := 0; i < p.n; i++ {
			grown[i] = p.buf[(p.head+i)&(len(p.buf)-1)]
		}
		p.buf, p.head = grown, 0
	}
	slot := &p.buf[(p.head+p.n)&(len(p.buf)-1)]
	*slot = m
	p.n++
	return slot
}

// pop removes the oldest message and returns its slot, which it leaves
// as it is; the caller has checked p.n > 0.
func (p *pairState) pop() *Message {
	m := &p.buf[p.head]
	p.head = (p.head + 1) & (len(p.buf) - 1)
	p.n--
	return m
}

// Network is the simulated interconnect: per-pair FIFO rings and a count
// of the messages in them, and nothing a restart must carry over.
//
// Pair state is indexed, never hashed: peers[dst] lists the pairs that
// end at dst, sorted by source rank, each created by the first send on
// it. A rank talks to a handful of peers (2–4 in a stencil), so finding
// a pair is a search over a few entries, and a drain of one destination
// (DrainTo) costs its in-degree rather than a scan of every pair in the
// job.
//
// Slot lifetime. Messages live by value in their pair's ring, and the
// pointers the Network hands out are pointers to ring slots:
//   - the message Send returns stays intact until it is received (by
//     Recv or DrainTo);
//   - the message Recv returns stays intact until its receiver's next
//     Recv or DrainTo on the same pair.
//
// Never keep a received *Message past that; copy what you need. The
// ring's one slot of slack (pairState) is what lets a receiver read its
// message while its sender pushes the next.
//
// A Network belongs to one run and has no lock: the goroutine driving
// the run makes every Send, Recv and DrainTo on it, like the per-rank
// state (see vtime.Clock).
type Network struct {
	params Params

	peers [][]pairState // indexed by destination rank: sized by Build, grown on demand
	// inflight counts sent-but-not-received messages, maintained
	// incrementally so the scheduler's per-event trigger checks are O(1)
	// instead of a scan over every pair.
	inflight uint64
}

// New returns an empty network with the given parameters.
func New(params Params) *Network {
	return &Network{params: params}
}

// Build returns the empty network of a job of ranks ranks, as the job's
// start and every restart bring one up: nothing in flight and no pair
// yet. Its destination index is sized for the ranks in one allocation,
// so that no send to one of them regrows it.
func Build(params Params, ranks int) *Network {
	n := New(params)
	n.peers = make([][]pairState, ranks)
	return n
}

// peersOf returns dst's peer list: nil for a rank nobody has sent to.
func (n *Network) peersOf(dst int) []pairState {
	if dst >= len(n.peers) {
		return nil
	}
	return n.peers[dst]
}

// find returns the position of pair (src, dst) in dst's peer list and
// whether it exists; when it does not, the position is where it would
// be inserted to keep the list sorted by source.
func (n *Network) find(src, dst int) (int, bool) {
	list := n.peersOf(dst)
	lo, hi := 0, len(list)
	for lo < hi {
		if mid := (lo + hi) / 2; list[mid].src < src {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(list) && list[lo].src == src
}

// pair returns pair (src, dst)'s state, creating it on first use.
func (n *Network) pair(src, dst int) *pairState {
	i, ok := n.find(src, dst)
	if !ok {
		if dst >= len(n.peers) {
			n.peers = append(n.peers, make([][]pairState, dst+1-len(n.peers))...)
		}
		n.peers[dst] = slices.Insert(n.peers[dst], i, pairState{src: src})
	}
	return &n.peers[dst][i]
}

// Send injects a message and returns its ring slot, whose Seq the sender
// stamps (Message.Seq), together with the duration the sender's link is
// busy (charged to the sender's clock by the rank runtime). The message
// arrives one Latency after the link frees: at the piggybacked stamp's
// time plus the busy duration plus Latency.
func (n *Network) Send(src, dst, tag int, bytes uint64, sent vtime.Stamp) (*Message, vtime.Duration) {
	busy := n.params.SerializeCost(bytes)
	arrive := sent.When.Add(busy + n.params.Latency)
	m := n.pair(src, dst).push(Message{Src: src, Dst: dst, Tag: tag, Bytes: bytes, Sent: sent, Arrive: arrive})
	n.inflight++
	return m, busy
}

// Room returns how many more messages from src to dst fit the pair's
// ring as it is — its free slots besides the one of slack — so that many
// sends grow no storage. It is 0 for a pair that has no ring yet.
func (n *Network) Room(src, dst int) int {
	i, ok := n.find(src, dst)
	if !ok {
		return 0
	}
	p := &n.peers[dst][i]
	return max(0, len(p.buf)-1-p.n)
}

// Recv pops the oldest in-flight message from src to dst that has
// arrived by the given virtual time, preserving MPI's per-pair
// non-overtaking order, and returns its ring slot, which stays intact
// until dst's next receive from src (see Network). It returns nil if
// no message from src has both been sent and arrived: a message becomes
// visible to its receiver at m.Arrive, never earlier, so a receive
// posted before the wire latency has elapsed blocks until the delivery
// event wakes it. (Per-pair arrival order equals send order: every
// message on a pair traverses the same wire, so the FIFO head is always
// the earliest arrival.)
func (n *Network) Recv(dst, src int, by vtime.Time) *Message {
	i, ok := n.find(src, dst)
	if !ok {
		return nil
	}
	p := &n.peers[dst][i]
	if p.n == 0 || p.buf[p.head].Arrive > by {
		return nil
	}
	n.inflight--
	return p.pop()
}

// DrainTo pops every in-flight message destined for dst, in deterministic
// order (by source rank, then send order), and appends them by value to
// out, which it returns: a caller that passes the same buffer back,
// emptied, drains without allocating. The coordinator calls this during
// the drain phase so the messages can be buffered into the receiving
// rank's checkpoint image, where they count as received
// (rank.Rank.BufferDrained).
func (n *Network) DrainTo(dst int, out []Message) []Message {
	list := n.peersOf(dst)
	for i := range list {
		p := &list[i]
		if p.n == 0 {
			continue
		}
		n.inflight -= uint64(p.n)
		for p.n > 0 {
			out = append(out, *p.pop())
		}
	}
	return out
}

// InFlight returns the total number of sent-but-not-received messages.
// It is O(1): the count is maintained incrementally so the scheduler can
// consult it after every event.
func (n *Network) InFlight() uint64 {
	return n.inflight
}
