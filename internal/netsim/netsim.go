// Package netsim models the point-to-point interconnect of the simulated
// MPI job in virtual time.
//
// The model is deliberately simple — a latency plus bandwidth-serialisation
// cost per message — because MANA is network-agnostic: the checkpointing
// algorithm only needs to know *when* a message becomes visible to its
// receiver and *how many* messages are in flight between each pair of
// ranks. Every message piggybacks the sender's virtual timestamp
// (vtime.Stamp) so the receiver can advance causally, and the network keeps
// the per-pair send/receive counters that the coordinator's draining
// algorithm (paper §3.1) compares to decide when the network is quiescent.
//
// Delivery is event-driven: each Send computes the message's arrival time
// and hands it to the registered DeliveryScheduler, which turns it into a
// virtual-time event on the coordinator's queue. Receivers are therefore
// woken exactly when a matching message becomes visible instead of being
// polled every scheduler iteration.
//
// The network owns every message. A message is a value in its pair's
// FIFO ring, never a heap object of its own: Send, Recv and the
// DeliveryScheduler callback hand out pointers to ring slots, and
// DrainTo copies messages out into a buffer the caller owns. A slot
// pointer is good for as long as the Network documents (the
// slot-lifetime contract); whatever outlives that keeps the fields it
// needs by value.
package netsim

import (
	"fmt"
	"slices"
	"sync"

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
	// GroupSize partitions ranks into contiguous topology groups of this
	// many ranks each (rank r belongs to group r/GroupSize): the fabric
	// analogue of an electrical group / leaf switch. Zero means a flat
	// fabric with no groups. Groups are also the island scheduler's
	// partition: ranks in the same group share an event-queue lane.
	GroupSize int
	// CrossGroupLatency is the EXTRA one-way latency a message pays when
	// src and dst are in different groups (spine hop). It is the island
	// scheduler's conservative lookahead: no cross-group message can
	// arrive sooner than Latency+CrossGroupLatency after it is sent, so
	// islands may run that far ahead without coordination.
	CrossGroupLatency vtime.Duration
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

// GroupOf returns the topology group of a rank, or 0 on a flat fabric.
func (p Params) GroupOf(rank int) int {
	if p.GroupSize <= 0 {
		return 0
	}
	return rank / p.GroupSize
}

// WireLatency returns the one-way latency between two ranks: the base
// Latency, plus CrossGroupLatency when they sit in different groups.
func (p Params) WireLatency(src, dst int) vtime.Duration {
	l := p.Latency
	if p.GroupSize > 0 && p.GroupOf(src) != p.GroupOf(dst) {
		l += p.CrossGroupLatency
	}
	return l
}

// CrossLookahead returns the minimum one-way latency of any message that
// crosses a group boundary — the island scheduler's conservative
// lookahead window. An event executed at time t can only influence
// another island at t+CrossLookahead or later, so islands may run
// [t, t+CrossLookahead) concurrently. On a flat fabric every rank pair
// is potentially one hop apart, so the lookahead is the base Latency.
func (p Params) CrossLookahead() vtime.Duration {
	if p.GroupSize > 0 {
		return p.Latency + p.CrossGroupLatency
	}
	return p.Latency
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
	// Seq is a globally unique, monotonically increasing send sequence
	// number; it makes drain ordering deterministic.
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

// Pair identifies a directed rank pair.
type Pair struct {
	Src, Dst int
}

// PairCount holds the send/receive counters for one directed pair. The
// draining algorithm is exactly "wait until Sent == Received for every
// pair" (§3.1).
type PairCount struct {
	Sent     uint64
	Received uint64
}

// Counters is a snapshot of all per-pair counters, keyed by pair. It is
// part of the checkpoint image so that restart resumes with consistent
// bookkeeping.
type Counters map[Pair]PairCount

// Clone returns a deep copy of the counters.
func (c Counters) Clone() Counters {
	out := make(Counters, len(c))
	for k, v := range c {
		out[k] = v
	}
	return out
}

// InFlight returns the total number of sent-but-not-received messages the
// counters describe.
func (c Counters) InFlight() uint64 {
	var n uint64
	for _, v := range c {
		n += v.Sent - v.Received
	}
	return n
}

// DeliveryScheduler is notified of every injected message so its arrival
// can be scheduled as a virtual-time event. The event-driven coordinator
// registers itself here: instead of polling the network for receivable
// messages, it is handed each message's arrival time at send time and
// pushes a delivery event onto its queue.
type DeliveryScheduler interface {
	// ScheduleDelivery is called once per Send, after the message's
	// arrival time has been computed and the network lock has been
	// released, so implementations are free to inspect the Network. m is
	// the message's ring slot: keep what outlives its receipt by value.
	ScheduleDelivery(m *Message)
}

// pairState is one directed pair's state, kept at its destination: the
// FIFO of in-flight messages and the §3.1 send/receive counters. The
// FIFO is a ring of message values over a power-of-two buffer, so a pair
// that is never fully drained still reuses its storage instead of
// creeping through a slice, and a send into a ring that is large enough
// allocates nothing. A Message holds no pointer, so neither does the
// ring: the collector never scans it.
//
// The ring keeps one slot of slack — push grows it before it would
// fill — so the slot pop just vacated is never the next one push
// writes. The slot-lifetime contract (see Network) rests on it: a
// message Recv returned stays intact until its receiver's next receive
// on the pair, even while the sender pushes from another goroutine.
type pairState struct {
	src   int
	count PairCount
	buf   []Message
	head  int // index of the oldest message in buf
	n     int // messages queued
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

// Network is the simulated interconnect: per-pair FIFO queues plus the
// send/receive counters the drain protocol uses.
//
// Pair state is indexed, never hashed: peers[dst] lists the pairs that
// end at dst, sorted by source rank, each created by the first send on
// it. A rank talks to a handful of peers (2–4 in a stencil), so finding
// a pair is a search over a few entries, and everything the drain phase
// asks about one destination — PeersTo, InFlightTo, DrainTo — costs its
// in-degree rather than a scan of every pair in the job. The
// map-shaped Counters type exists only at the edges, where the paper's
// counters are actually compared: CountersSnapshot builds it at a
// checkpoint commit and Restore consumes it at restart.
//
// Slot lifetime. Messages live by value in their pair's ring, and the
// pointers the Network hands out are pointers to ring slots:
//   - the message Send returns, and passes to ScheduleDelivery, stays
//     intact until it is received (by Recv or DrainTo);
//   - the message Recv returns stays intact until its receiver's next
//     Recv or DrainTo on the same pair, or a Restore.
//
// Never keep a received *Message past that; copy what you need. The
// ring's one slot of slack (pairState) is what lets a receiver read its
// message while the sender, on another window worker, pushes the next.
//
// The Network is the one object a parallel window's workers genuinely
// share — a rank on one island sends to a rank on another — so, unlike
// the single-owner per-rank state (see vtime.Clock), it is locked: one
// mutex covers the tables, including their growth, so no reader ever
// sees a peer list mid-reallocation.
type Network struct {
	params Params

	mu      sync.Mutex
	nextSeq uint64
	peers   [][]pairState // indexed by destination rank, grown on demand
	// inflight counts sent-but-not-received messages, maintained
	// incrementally so the scheduler's per-event trigger checks are O(1)
	// instead of a scan over every pair.
	inflight uint64

	scheduler DeliveryScheduler
}

// New returns an empty network with the given parameters.
func New(params Params) *Network {
	return &Network{params: params}
}

// Params returns the cost-model parameters.
func (n *Network) Params() Params { return n.params }

// SetDeliveryScheduler registers the sink that receives one
// ScheduleDelivery callback per injected message. Passing nil disables
// scheduling (the polling-style tests drive Recv directly).
func (n *Network) SetDeliveryScheduler(s DeliveryScheduler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.scheduler = s
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

// Send injects a message and returns its ring slot together with the
// duration the sender's link is busy (charged to the sender's clock by
// the rank runtime). The arrival time is computed from the piggybacked
// stamp.
func (n *Network) Send(src, dst, tag int, bytes uint64, sent vtime.Stamp) (*Message, vtime.Duration) {
	busy := n.params.SerializeCost(bytes)
	arrive := sent.When.Add(busy + n.params.WireLatency(src, dst))
	n.mu.Lock()
	n.nextSeq++
	p := n.pair(src, dst)
	m := p.push(Message{Seq: n.nextSeq, Src: src, Dst: dst, Tag: tag, Bytes: bytes, Sent: sent, Arrive: arrive})
	p.count.Sent++
	n.inflight++
	scheduler := n.scheduler
	n.mu.Unlock()
	// The delivery event is scheduled outside the lock: the scheduler
	// callback pushes onto the coordinator's event queue and must be free
	// to inspect the network.
	if scheduler != nil {
		scheduler.ScheduleDelivery(m)
	}
	return m, busy
}

// Recv pops the oldest in-flight message from src to dst that has
// arrived by the given virtual time, preserving MPI's per-pair
// non-overtaking order, and returns its ring slot, which stays intact
// until dst's next receive from src (see Network). It returns nil if no message from src has both
// been sent and arrived — a message becomes visible to its receiver at
// m.Arrive, never earlier. That arrival gate is what makes the island
// scheduler's lookahead sound: a send can only influence another island
// once its wire latency has elapsed, so islands may run a full
// CrossLookahead apart without observing each other's in-progress work.
// (Per-pair arrival order equals send order: every message on a pair
// traverses the same wire, so the FIFO head is always the earliest
// arrival.)
func (n *Network) Recv(dst, src int, by vtime.Time) *Message {
	n.mu.Lock()
	defer n.mu.Unlock()
	i, ok := n.find(src, dst)
	if !ok {
		return nil
	}
	p := &n.peers[dst][i]
	if p.n == 0 || p.buf[p.head].Arrive > by {
		return nil
	}
	p.count.Received++
	n.inflight--
	return p.pop()
}

// DrainTo pops every in-flight message destined for dst, in deterministic
// order (by source rank, then send sequence), marking each as received,
// and appends them by value to out, which it returns: a caller that
// passes the same buffer back, emptied, drains without allocating. The
// coordinator calls this during the drain phase so the messages can be
// buffered into the receiving rank's checkpoint image.
func (n *Network) DrainTo(dst int, out []Message) []Message {
	n.mu.Lock()
	defer n.mu.Unlock()
	list := n.peersOf(dst)
	for i := range list {
		p := &list[i]
		p.count.Received += uint64(p.n)
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
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.inflight
}

// InFlightTo returns the number of in-flight messages destined for dst.
func (n *Network) InFlightTo(dst int) uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	var total uint64
	list := n.peersOf(dst)
	for i := range list {
		total += uint64(list[i].n)
	}
	return total
}

// PeersTo returns the number of source ranks that have ever sent to dst.
// The drain phase charges dst one counter-comparison probe per such peer
// (§3.1 compares send/receive counters pairwise).
func (n *Network) PeersTo(dst int) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.peersOf(dst))
}

// CountersSnapshot returns the per-pair counters as a map, built fresh
// from the pair tables.
func (n *Network) CountersSnapshot() Counters {
	n.mu.Lock()
	defer n.mu.Unlock()
	pairs := 0
	for _, list := range n.peers {
		pairs += len(list)
	}
	out := make(Counters, pairs)
	for dst, list := range n.peers {
		for i := range list {
			out[Pair{Src: list[i].src, Dst: dst}] = list[i].count
		}
	}
	return out
}

// Restore resets the network to a checkpointed state: all queues are
// discarded (a correct checkpoint drains them to zero first) and the
// counters are replaced by the snapshot.
func (n *Network) Restore(c Counters) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for dst, list := range n.peers {
		clear(list) // drop the abandoned timeline's rings
		n.peers[dst] = list[:0]
	}
	for pr, pc := range c {
		n.pair(pr.Src, pr.Dst).count = pc
	}
	// The queues are the ground truth for deliverable messages, and they
	// have just been discarded (a correct checkpoint drains to zero).
	n.inflight = 0
}

// TotalSent returns the total number of messages ever sent.
func (n *Network) TotalSent() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	var total uint64
	for _, list := range n.peers {
		for i := range list {
			total += list[i].count.Sent
		}
	}
	return total
}

// String summarises the network state for debugging.
func (n *Network) String() string {
	return fmt.Sprintf("netsim.Network{inflight=%d, sent=%d}", n.InFlight(), n.TotalSent())
}
