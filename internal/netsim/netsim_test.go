package netsim

import (
	"testing"

	"mana/internal/vtime"
)

func testParams() Params {
	return Params{Latency: 1000 * vtime.Nanosecond, BandwidthBytesPerSec: 1e9}
}

func TestSendArrivalTime(t *testing.T) {
	n := New(testParams())
	stamp := vtime.Stamp{Rank: 0, When: vtime.Time(5000)}
	m, busy := n.Send(0, 1, 7, 1000, stamp)
	// 1000 bytes at 1 GB/s = 1 us serialisation.
	if busy != 1000*vtime.Nanosecond {
		t.Fatalf("busy = %v, want 1us", busy)
	}
	want := stamp.When.Add(busy + 1000*vtime.Nanosecond)
	if m.Arrive != want {
		t.Errorf("Arrive = %v, want %v", m.Arrive, want)
	}
	if m.Sent != stamp {
		t.Errorf("piggybacked stamp = %+v, want %+v", m.Sent, stamp)
	}
	if m.Tag != 7 || m.Src != 0 || m.Dst != 1 {
		t.Errorf("message metadata wrong: %+v", m)
	}
}

func TestRecvFIFOPerPair(t *testing.T) {
	n := New(testParams())
	s := vtime.Stamp{Rank: 0, When: 0}
	n.Send(0, 1, 0, 10, s)
	n.Send(0, 1, 1, 10, s)
	by := vtime.Time(1 * vtime.Millisecond)
	if got := n.Recv(1, 0, by); got.Tag != 0 {
		t.Errorf("first recv got tag %d, want 0 (non-overtaking order)", got.Tag)
	}
	if got := n.Recv(1, 0, by); got.Tag != 1 {
		t.Errorf("second recv got tag %d, want 1", got.Tag)
	}
	if got := n.Recv(1, 0, by); got != nil {
		t.Errorf("empty queue recv = %+v, want nil", got)
	}
}

// inFlightTo returns the number of in-flight messages destined for dst,
// read off its pairs' rings.
func inFlightTo(n *Network, dst int) uint64 {
	var total uint64
	list := n.peersOf(dst)
	for i := range list {
		total += uint64(list[i].n)
	}
	return total
}

func TestCountersTrackInFlight(t *testing.T) {
	n := New(testParams())
	s := vtime.Stamp{Rank: 0, When: 0}
	n.Send(0, 1, 0, 10, s)
	n.Send(0, 1, 0, 10, s)
	n.Send(2, 1, 0, 10, s)
	if got := n.InFlight(); got != 3 {
		t.Fatalf("InFlight = %d, want 3", got)
	}
	if got := inFlightTo(n, 1); got != 3 {
		t.Fatalf("InFlightTo(1) = %d, want 3", got)
	}
	n.Recv(1, 0, vtime.Time(1*vtime.Millisecond))
	if got := n.InFlight(); got != 2 {
		t.Fatalf("InFlight after recv = %d, want 2", got)
	}
	if got := inFlightTo(n, 1); got != 2 {
		t.Errorf("InFlightTo(1) after recv = %d, want 2", got)
	}
}

func TestDrainToEmptiesAndCounts(t *testing.T) {
	n := New(testParams())
	s := vtime.Stamp{Rank: 0, When: 0}
	n.Send(3, 1, 0, 10, s)
	n.Send(0, 1, 0, 10, s)
	n.Send(0, 1, 1, 10, s)
	n.Send(0, 2, 0, 10, s)
	msgs := n.DrainTo(1, nil)
	if len(msgs) != 3 {
		t.Fatalf("DrainTo(1) returned %d messages, want 3", len(msgs))
	}
	// Deterministic order: by source rank, then send sequence.
	if msgs[0].Src != 0 || msgs[1].Src != 0 || msgs[2].Src != 3 {
		t.Errorf("drain order by src = %d,%d,%d, want 0,0,3", msgs[0].Src, msgs[1].Src, msgs[2].Src)
	}
	if msgs[0].Tag != 0 || msgs[1].Tag != 1 {
		t.Errorf("drain order within pair not FIFO: tag %d then %d", msgs[0].Tag, msgs[1].Tag)
	}
	if got := inFlightTo(n, 1); got != 0 {
		t.Errorf("InFlightTo(1) after drain = %d, want 0", got)
	}
	if got := n.InFlight(); got != 1 {
		t.Errorf("InFlight after drain = %d, want 1 (the 0->2 message)", got)
	}
}

// TestRoomCountsFreeRingSlots: Room is how many more messages a pair's
// ring takes before a send grows it — none before the pair's first send,
// and never the ring's one slot of slack.
func TestRoomCountsFreeRingSlots(t *testing.T) {
	n := New(testParams())
	s := vtime.Stamp{Rank: 0, When: 0}
	later := vtime.Time(vtime.Millisecond)
	if got := n.Room(0, 1); got != 0 {
		t.Errorf("Room before the first send = %d, want 0", got)
	}
	n.Send(0, 1, 0, 10, s) // a 2-slot ring, one message queued
	if got := n.Room(0, 1); got != 0 {
		t.Errorf("Room with a 2-slot ring holding one message = %d, want 0", got)
	}
	n.Recv(1, 0, later)
	if got := n.Room(0, 1); got != 1 {
		t.Errorf("Room with an empty 2-slot ring = %d, want 1", got)
	}
	n.Send(0, 1, 0, 10, s)
	n.Send(0, 1, 0, 10, s) // grows to 4 slots, two queued
	if got := n.Room(0, 1); got != 1 {
		t.Errorf("Room with a 4-slot ring holding two messages = %d, want 1", got)
	}
	if got := n.Room(1, 0); got != 0 {
		t.Errorf("Room of the reverse pair = %d, want 0", got)
	}
}

// TestReserveSizesTheIndexOnce: the destination index of a network
// built for 64 ranks is the one array sends to every one of them use;
// only a send past it grows the index.
func TestReserveSizesTheIndexOnce(t *testing.T) {
	n := Build(testParams(), 64)
	index := &n.peers[0]
	s := vtime.Stamp{Rank: 0, When: 0}
	for dst := 63; dst >= 1; dst-- {
		n.Send(0, dst, 0, 10, s)
	}
	if len(n.peers) != 64 || &n.peers[0] != index {
		t.Errorf("sends below the reserved 64 ranks regrew the index to %d entries", len(n.peers))
	}
	n.Send(0, 64, 0, 10, s)
	if len(n.peers) != 65 {
		t.Errorf("a send to rank 64 left the index at %d entries, want 65", len(n.peers))
	}
}

func TestCollectiveCost(t *testing.T) {
	p := testParams()
	if got := p.CollectiveCost(Barrier, 1, 0); got != 0 {
		t.Errorf("1-rank barrier cost = %v, want 0", got)
	}
	b8 := p.CollectiveCost(Barrier, 8, 0)
	if got := 3 * p.Latency; b8 != got {
		t.Errorf("8-rank barrier = %v, want %v (log2 depth 3)", b8, got)
	}
	a8 := p.CollectiveCost(Allreduce, 8, 1000)
	if a8 <= b8 {
		t.Errorf("allreduce (%v) should cost more than barrier (%v)", a8, b8)
	}
	// Non-power-of-two rank counts round the tree depth up.
	if got, want := p.CollectiveCost(Barrier, 9, 0), 4*p.Latency; got != want {
		t.Errorf("9-rank barrier = %v, want %v", got, want)
	}
	// A comm-split pays the barrier tree plus the colour allgather; the
	// payload argument is ignored (the exchange is the fixed colour/key
	// pair per rank).
	s8 := p.CollectiveCost(CommSplit, 8, 0)
	if s8 <= b8 {
		t.Errorf("comm-split (%v) should cost more than barrier (%v)", s8, b8)
	}
	if got := p.CollectiveCost(CommSplit, 8, 1<<20); got != s8 {
		t.Errorf("comm-split cost varies with payload: %v vs %v", got, s8)
	}
}

func TestSerializeCostZeroBandwidth(t *testing.T) {
	p := Params{Latency: 0, BandwidthBytesPerSec: 0}
	if got := p.SerializeCost(1 << 20); got != 0 {
		t.Errorf("zero-bandwidth serialize cost = %v, want 0", got)
	}
}

func TestRecvArrivalGate(t *testing.T) {
	n := New(testParams())
	s := vtime.Stamp{Rank: 0, When: 0}
	m, _ := n.Send(0, 1, 0, 1000, s)
	if got := n.Recv(1, 0, m.Arrive.Add(-vtime.Nanosecond)); got != nil {
		t.Fatalf("Recv before arrival = %+v, want nil", got)
	}
	if got := n.InFlight(); got != 1 {
		t.Fatalf("gated recv consumed the message: in flight = %d, want 1", got)
	}
	if got := n.Recv(1, 0, m.Arrive); got != m {
		t.Fatalf("Recv at arrival = %+v, want the slot Send filled", got)
	}
}

// TestMessagePathAllocatesNothing pins the per-message cost at zero
// allocations once a pair's ring exists: a message is a value in its
// pair's ring, and a drain appends values into a buffer the caller
// reuses.
func TestMessagePathAllocatesNothing(t *testing.T) {
	n := New(testParams())
	s := vtime.Stamp{Rank: 0, When: 0}
	var buf []Message
	for i := 0; i < 3; i++ { // the pair, its ring at three in flight, the drain buffer
		n.Send(0, 1, 0, 10, s)
	}
	buf = n.DrainTo(1, buf[:0])
	if a := testing.AllocsPerRun(100, func() {
		m, _ := n.Send(0, 1, 0, 10, s)
		if n.Recv(1, 0, m.Arrive) != m {
			t.Fatal("Recv did not return the slot Send filled")
		}
	}); a != 0 {
		t.Errorf("Send+Recv on an existing pair allocates %v times, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		for i := 0; i < 3; i++ {
			n.Send(0, 1, 0, 10, s)
		}
		if buf = n.DrainTo(1, buf[:0]); len(buf) != 3 {
			t.Fatalf("DrainTo returned %d messages, want 3", len(buf))
		}
	}); a != 0 {
		t.Errorf("DrainTo into a reused buffer allocates %v times, want 0", a)
	}
}
