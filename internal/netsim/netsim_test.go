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
	m1, _ := n.Send(0, 1, 0, 10, s)
	m2, _ := n.Send(0, 1, 1, 10, s)
	by := vtime.Time(1 * vtime.Millisecond)
	if got := n.Recv(1, 0, by); got.Seq != m1.Seq {
		t.Errorf("first recv got seq %d, want %d (non-overtaking order)", got.Seq, m1.Seq)
	}
	if got := n.Recv(1, 0, by); got.Seq != m2.Seq {
		t.Errorf("second recv got seq %d, want %d", got.Seq, m2.Seq)
	}
	if got := n.Recv(1, 0, by); got != nil {
		t.Errorf("empty queue recv = %+v, want nil", got)
	}
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
	if got := n.InFlightTo(1); got != 3 {
		t.Fatalf("InFlightTo(1) = %d, want 3", got)
	}
	n.Recv(1, 0, vtime.Time(1*vtime.Millisecond))
	if got := n.InFlight(); got != 2 {
		t.Fatalf("InFlight after recv = %d, want 2", got)
	}
	c := n.CountersSnapshot()
	if got := c.InFlight(); got != 2 {
		t.Fatalf("Counters.InFlight = %d, want 2", got)
	}
	pc := c[Pair{Src: 0, Dst: 1}]
	if pc.Sent != 2 || pc.Received != 1 {
		t.Errorf("pair (0,1) = %+v, want sent=2 received=1", pc)
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
	if msgs[0].Seq > msgs[1].Seq {
		t.Errorf("drain order within pair not FIFO: %d then %d", msgs[0].Seq, msgs[1].Seq)
	}
	if got := n.InFlightTo(1); got != 0 {
		t.Errorf("InFlightTo(1) after drain = %d, want 0", got)
	}
	if got := n.InFlight(); got != 1 {
		t.Errorf("InFlight after drain = %d, want 1 (the 0->2 message)", got)
	}
	if got := n.CountersSnapshot().InFlight(); got != 1 {
		t.Errorf("counters disagree with queues after drain: %d in flight", got)
	}
}

func TestRestoreResetsQueuesAndCounters(t *testing.T) {
	n := New(testParams())
	s := vtime.Stamp{Rank: 0, When: 0}
	n.Send(0, 1, 0, 10, s)
	n.Recv(1, 0, vtime.Time(1*vtime.Millisecond))
	saved := n.CountersSnapshot()
	n.Send(0, 1, 0, 10, s)
	n.Send(1, 0, 0, 10, s)
	n.Restore(saved)
	if got := n.InFlight(); got != 0 {
		t.Errorf("InFlight after restore = %d, want 0", got)
	}
	if got := n.TotalSent(); got != 1 {
		t.Errorf("TotalSent after restore = %d, want 1", got)
	}
	// The snapshot must be isolated from later mutation of the network.
	n.Send(0, 1, 0, 10, s)
	if got := saved[Pair{Src: 0, Dst: 1}].Sent; got != 1 {
		t.Errorf("saved counters mutated by later sends: sent=%d, want 1", got)
	}
}

func TestPeersTo(t *testing.T) {
	n := New(testParams())
	s := vtime.Stamp{Rank: 0, When: 0}
	if got := n.PeersTo(1); got != 0 {
		t.Fatalf("PeersTo on empty network = %d, want 0", got)
	}
	n.Send(0, 1, 0, 10, s)
	n.Send(0, 1, 0, 10, s)
	n.Send(2, 1, 0, 10, s)
	n.Send(0, 2, 0, 10, s)
	if got := n.PeersTo(1); got != 2 {
		t.Errorf("PeersTo(1) = %d, want 2 (ranks 0 and 2 have history)", got)
	}
	// History persists after the queues empty: counters, not queues,
	// drive the drain probes.
	n.DrainTo(1, nil)
	if got := n.PeersTo(1); got != 2 {
		t.Errorf("PeersTo(1) after drain = %d, want 2", got)
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

func TestTopologyGroups(t *testing.T) {
	p := Params{
		Latency:           1000 * vtime.Nanosecond,
		GroupSize:         4,
		CrossGroupLatency: 5000 * vtime.Nanosecond,
	}
	if got := p.GroupOf(0); got != 0 {
		t.Errorf("GroupOf(0) = %d, want 0", got)
	}
	if got := p.GroupOf(3); got != 0 {
		t.Errorf("GroupOf(3) = %d, want 0", got)
	}
	if got := p.GroupOf(4); got != 1 {
		t.Errorf("GroupOf(4) = %d, want 1", got)
	}
	// Intra-group pays base latency; cross-group pays the spine hop too.
	if got := p.WireLatency(0, 3); got != p.Latency {
		t.Errorf("intra-group WireLatency = %v, want %v", got, p.Latency)
	}
	if got, want := p.WireLatency(0, 4), p.Latency+p.CrossGroupLatency; got != want {
		t.Errorf("cross-group WireLatency = %v, want %v", got, want)
	}
	if got, want := p.CrossLookahead(), p.Latency+p.CrossGroupLatency; got != want {
		t.Errorf("CrossLookahead = %v, want %v", got, want)
	}

	// Flat fabric: no groups, lookahead collapses to the base latency.
	flat := Params{Latency: 1000 * vtime.Nanosecond}
	if got := flat.GroupOf(17); got != 0 {
		t.Errorf("flat GroupOf = %d, want 0", got)
	}
	if got := flat.WireLatency(0, 17); got != flat.Latency {
		t.Errorf("flat WireLatency = %v, want %v", got, flat.Latency)
	}
	if got := flat.CrossLookahead(); got != flat.Latency {
		t.Errorf("flat CrossLookahead = %v, want %v", got, flat.Latency)
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
	if got := n.Recv(1, 0, m.Arrive); got == nil || got.Seq != m.Seq {
		t.Fatalf("Recv at arrival = %+v, want seq %d", got, m.Seq)
	}
}

func TestSendCrossGroupArrival(t *testing.T) {
	p := Params{
		Latency:           1000 * vtime.Nanosecond,
		GroupSize:         2,
		CrossGroupLatency: 9000 * vtime.Nanosecond,
	}
	n := New(p)
	sent := vtime.Stamp{When: vtime.Time(0).Add(100 * vtime.Nanosecond)}
	intra, _ := n.Send(0, 1, 7, 0, sent)
	if got, want := intra.Arrive, sent.When.Add(p.Latency); got != want {
		t.Errorf("intra-group arrival = %v, want %v", got, want)
	}
	cross, _ := n.Send(0, 2, 7, 0, sent)
	if got, want := cross.Arrive, sent.When.Add(p.Latency+p.CrossGroupLatency); got != want {
		t.Errorf("cross-group arrival = %v, want %v", got, want)
	}
}

// TestMessagePathAllocatesNothing pins the per-message cost at zero
// allocations once a pair's ring exists: a message is a value in its
// pair's ring, and a drain appends values into a buffer the caller
// reuses.
func TestMessagePathAllocatesNothing(t *testing.T) {
	n := New(testParams())
	n.SetDeliveryScheduler(nopScheduler{})
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

type nopScheduler struct{}

func (nopScheduler) ScheduleDelivery(*Message) {}
