package rank

import (
	"reflect"
	"testing"

	"mana/internal/kernelsim"
	"mana/internal/netsim"
	"mana/internal/scenario"
	"mana/internal/virtid"
	"mana/internal/vtime"
)

// sends returns a script of blocking sends, one to each peer in turn.
func sends(peers ...int) scenario.Program {
	script := make(scenario.Program, len(peers))
	for i, p := range peers {
		script[i] = scenario.Op{Kind: scenario.OpSend, Peer: p, Bytes: 100}
	}
	return script
}

// drainAll buffers every in-flight message at its receiver, as a
// checkpoint's drain does.
func drainAll(net *netsim.Network, ranks []*Rank) {
	for _, r := range ranks {
		for _, m := range net.DrainTo(r.ID(), nil) {
			r.BufferDrained(m)
		}
	}
}

// TestSeqIsThePeersSendOrdinal: a message's Seq counts the sends its
// sender made to its receiver, whatever the sender and the other ranks
// send in between; a rank rebuilt from its image continues each peer's
// count from the image rather than from what the abandoned timeline
// sent, so a message drained after a restart is the one the
// uninterrupted run drains, Seq included.
func TestSeqIsThePeersSendOrdinal(t *testing.T) {
	build := func() []*Rank {
		return []*Rank{
			New(0, kernelsim.Unpatched, virtid.ImplSharded, sends(1, 1, 2, 1, 1, 1)),
			New(1, kernelsim.Unpatched, virtid.ImplSharded, sends(0, 2, 0)),
			New(2, kernelsim.Unpatched, virtid.ImplSharded, sends(1, 1, 1)),
		}
	}
	// step executes the listed ranks' next sends in order and checks each
	// message's Seq.
	step := func(t *testing.T, what string, net *netsim.Network, ranks []*Rank, order []int, want []uint64) {
		t.Helper()
		for i, id := range order {
			r := ranks[id]
			tr := r.Execute(net)
			got := net.DrainTo(tr.SentTo-1, nil)
			if len(got) != 1 || got[0].Seq != want[i] {
				t.Fatalf("%s, send %d (rank %d): %+v, want one message with Seq %d", what, i, id, got, want[i])
			}
			ranks[tr.SentTo-1].BufferDrained(got[0])
		}
	}
	net, refNet := testNet(), testNet()
	ranks, ref := build(), build()
	before, seqs := []int{0, 2, 0, 1, 0, 0, 2}, []uint64{1, 1, 2, 1, 1, 3, 2}
	step(t, "before the checkpoint", net, ranks, before, seqs)
	step(t, "the uninterrupted run", refNet, ref, before, seqs)
	images := make([]Image, len(ranks))
	for i, r := range ranks {
		images[i] = r.CaptureImage(false)
	}
	// The abandoned timeline sends on, then dies; its ranks restart from
	// their images on a new network.
	step(t, "the abandoned timeline", net, ranks, []int{0, 0, 1}, []uint64{4, 5, 1})
	for i, r := range ranks {
		r.Restore(images[i])
	}
	net = testNet()
	for _, id := range []int{0, 1, 2, 1} {
		ranks[id].Execute(net)
		ref[id].Execute(refNet)
	}
	got, want := net.DrainTo(1, nil), refNet.DrainTo(1, nil)
	if len(got) != 2 || got[0].Seq != 4 || got[1].Seq != 3 || !reflect.DeepEqual(got, want) {
		t.Errorf("after the restart rank 1 drains %+v, the uninterrupted run %+v; want Seq 4 from rank 0 and 3 from rank 2", got, want)
	}
	for _, id := range []int{0, 2} {
		got, want := net.DrainTo(id, nil), refNet.DrainTo(id, nil)
		if len(got) != 1 || !reflect.DeepEqual(got, want) {
			t.Errorf("after the restart rank %d drains %+v, the uninterrupted run %+v", id, got, want)
		}
	}
}

// TestReceivedCountsIncludeDrained: a drained message counts as received
// from its sender when the drain buffers it, and the application's
// receive that later consumes it from the inbox counts nothing more. A
// peer the rank only sent to has received nothing from it.
func TestReceivedCountsIncludeDrained(t *testing.T) {
	net := testNet()
	r0 := New(0, kernelsim.Unpatched, virtid.ImplSharded, sends(1, 1, 2))
	r1 := New(1, kernelsim.Unpatched, virtid.ImplSharded, scenario.Program{
		{Kind: scenario.OpRecv, Peer: 0}, {Kind: scenario.OpRecv, Peer: 2}, {Kind: scenario.OpRecv, Peer: 0},
		{Kind: scenario.OpSend, Peer: 3, Bytes: 8}, {Kind: scenario.OpCompute, Dur: vtime.Microsecond},
	})
	r2 := New(2, kernelsim.Unpatched, virtid.ImplSharded, sends(1))
	r0.Execute(net)
	r0.Execute(net)
	r2.Execute(net)
	r0.Execute(net)
	if got := r1.Counts(); len(got) != 0 {
		t.Fatalf("a rank that has received nothing counts %+v", got)
	}
	drainAll(net, []*Rank{r0, r1, r2})
	drained := []PeerCount{{Peer: 0, Received: 2}, {Peer: 2, Received: 1}}
	if got := r1.Counts(); !reflect.DeepEqual(got, drained) {
		t.Fatalf("after the drain rank 1 counts %+v, want %+v", got, drained)
	}
	for range 3 {
		if tr := r1.Execute(net); tr.Kind != Advanced {
			t.Fatalf("receive from the inbox: transition %+v", tr)
		}
	}
	if got := r1.Counts(); !reflect.DeepEqual(got, drained) || r1.Stats().MsgsRecvd != 3 {
		t.Errorf("after consuming its inbox rank 1 counts %+v with %d receives, want %+v and 3", got, r1.Stats().MsgsRecvd, drained)
	}
	r1.Execute(net)
	if got, want := r1.Counts(), append(drained, PeerCount{Peer: 3, Sent: 1}); !reflect.DeepEqual(got, want) {
		t.Errorf("after sending to rank 3, rank 1 counts %+v, want %+v", got, want)
	}
}

// TestCapturedCountsSharedUntilTraffic: captures with no traffic between
// them point at one SavedStats record, into a link's slot without
// allocating; a failed receive keeps it, and a drained message, a
// receive and a send — each of which moves a count — make the next
// capture mint a fresh one. A record handed out never changes.
func TestCapturedCountsSharedUntilTraffic(t *testing.T) {
	net := testNet()
	r := New(0, kernelsim.Unpatched, virtid.ImplSharded, scenario.Program{
		{Kind: scenario.OpSend, Peer: 1, Bytes: 8}, {Kind: scenario.OpRecv, Peer: 1},
		{Kind: scenario.OpSend, Peer: 2, Bytes: 8}, {Kind: scenario.OpCompute, Dur: vtime.Microsecond},
	})
	peer := New(1, kernelsim.Unpatched, virtid.ImplSharded, sends(0))
	r.Execute(net)
	drainAll(net, []*Rank{r, peer})
	first := r.CaptureImage(true).Stats
	var prev, slot Image
	r.CaptureInto(&prev, true, nil)
	if prev.Stats != first {
		t.Fatal("two captures with no traffic between them mint two records")
	}
	if a := testing.AllocsPerRun(20, func() { r.CaptureInto(&slot, true, &prev) }); a != 0 || slot.Stats != first {
		t.Errorf("a clean recapture into a slot allocates %v times, want 0, sharing the record", a)
	}
	if tr := r.Execute(net); tr.Kind != BlockedOnRecv {
		t.Fatalf("receive with nothing sent: transition %+v", tr)
	}
	if r.CaptureImage(true).Stats != first {
		t.Error("a failed receive replaced the record")
	}
	last := first
	for _, c := range []struct {
		name string
		op   func()
	}{
		{"a drained message", func() { r.BufferDrained(netsim.Message{Src: 3, Dst: 0, Seq: 1}) }},
		{"a receive", func() { peer.Execute(net); r.Wake(net, vtime.Time(vtime.Second)) }},
		{"a send", func() { r.Execute(net) }},
	} {
		c.op()
		next := r.CaptureImage(true).Stats
		if next == last {
			t.Errorf("%s: the capture shares the record taken before it", c.name)
		}
		if !reflect.DeepEqual(next.Peers, r.Counts()) || &next.Peers[0] == &r.Counts()[0] {
			t.Errorf("%s: the record holds %+v, want a copy of the rank's %+v", c.name, next.Peers, r.Counts())
		}
		last = next
	}
	if want := []PeerCount{{Peer: 1, Sent: 1}}; !reflect.DeepEqual(first.Peers, want) {
		t.Errorf("a handed-out record changed: %+v, want %+v", first.Peers, want)
	}
	if want := []PeerCount{{Peer: 1, Sent: 1, Received: 1}, {Peer: 2, Sent: 1}, {Peer: 3, Received: 1}}; !reflect.DeepEqual(last.Peers, want) {
		t.Errorf("the last record holds %+v, want %+v", last.Peers, want)
	}
}

// TestFromImageRestoresCounts: a rank rebuilt from an image holds the
// image's counts, not the dead rank's, in a table of its own — sending
// on leaves the image as it was, and a restore over the rank refills the
// table it had — and a rank restored from an image of no traffic counts
// nothing.
func TestFromImageRestoresCounts(t *testing.T) {
	net := testNet()
	r := New(0, kernelsim.Unpatched, virtid.ImplSharded, sends(1, 1, 1))
	postInit := r.CaptureImage(false)
	r.Execute(net)
	img := r.CaptureImage(false)
	r.Execute(net)
	r.BufferDrained(netsim.Message{Src: 2, Dst: 0, Seq: 1})
	r.Restore(img)
	want := []PeerCount{{Peer: 1, Sent: 1}}
	if got := r.Counts(); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored rank counts %+v, want the image's %+v", got, want)
	}
	r.Execute(net)
	if got := net.DrainTo(1, nil); got[len(got)-1].Seq != 2 {
		t.Errorf("the restored rank's next send to rank 1 has Seq %d, want 2", got[len(got)-1].Seq)
	}
	if !reflect.DeepEqual(img.Stats.Peers, want) {
		t.Errorf("sending after the restore changed the image's counts to %+v", img.Stats.Peers)
	}
	table := r.peers
	r.Restore(img)
	if got := r.Counts(); r.peers != table || !reflect.DeepEqual(got, want) {
		t.Errorf("a second restore counts %+v in table %p, want %+v in the rank's table %p", got, r.peers, want, table)
	}
	r.Restore(postInit)
	if got := r.Counts(); len(got) != 0 {
		t.Errorf("a rank restored from an image of no traffic counts %+v", got)
	}
}
