package rank

import (
	"reflect"
	"runtime"
	"testing"

	"mana/internal/kernelsim"
	"mana/internal/memsim"
	"mana/internal/netsim"
	"mana/internal/scenario"
	"mana/internal/virtid"
	"mana/internal/vtime"
)

func testNet() *netsim.Network {
	return netsim.New(netsim.Params{Latency: 1000 * vtime.Nanosecond, BandwidthBytesPerSec: 1e9})
}

// lastSent records, by value, the last message a network scheduled for
// delivery: how a test learns a send's arrival time.
type lastSent struct{ m netsim.Message }

func (l *lastSent) ScheduleDelivery(m *netsim.Message) { l.m = *m }

// TestNewRankMaterialisesNoStatePage pins construction cost to what is
// particular to a rank: app.state keeps its 64 KiB data length —
// fingerprints and images record it — but holds no page until a step
// writes one, and the twelve mappings of the split process are pointers
// into one shared layout, so a new rank allocates its handle table, its
// clock, kernel and rank records and one slice of region state — 2,080 B
// in 12 allocations when this was written (4,850 B in 43 before the
// layout was shared) — not its address space and not a copy of the map.
func TestNewRankMaterialisesNoStatePage(t *testing.T) {
	const n = 64
	var before, after runtime.MemStats
	ranks := make([]*Rank, n)
	runtime.ReadMemStats(&before)
	for i := range ranks {
		ranks[i] = New(i, kernelsim.Unpatched, virtid.ImplSharded, nil)
	}
	runtime.ReadMemStats(&after)
	per, mallocs := (after.TotalAlloc-before.TotalAlloc)/n, (after.Mallocs-before.Mallocs)/n
	t.Logf("rank.New: %d bytes in %d allocations per rank", per, mallocs)
	if per > 2560 || mallocs > 20 {
		t.Errorf("rank.New allocated %d bytes in %d allocations per rank, want <= 2.5 KiB in <= 20", per, mallocs)
	}
	r := ranks[0]
	state, ok := r.Mem().Lookup(stateRegion)
	if !ok || state.Name != "app.state" || state.DataLen != stateRegionSize {
		t.Fatalf("app.state = %+v, want a %d-byte data length", state, stateRegionSize)
	}
	// The zero-filled mapping is the same checkpointable state as the
	// 64 KiB of written zeros it replaced.
	flat := memsim.NewAddressSpace()
	for _, reg := range r.Mem().RegionsOf(memsim.UpperHalf) {
		if reg.Name == "app.state" {
			flat.MmapWithData(reg.Name, reg.Half, reg.Kind, make([]byte, stateRegionSize))
		} else {
			flat.Mmap(reg.Name, reg.Half, reg.Kind, reg.Size)
		}
	}
	if got, want := r.Mem().Fingerprint(), flat.Fingerprint(); got != want {
		t.Errorf("new rank fingerprints %016x, with a materialised state region %016x", got, want)
	}
}

// TestRanksShareTheLayoutNotTheContents: two ranks describe the same
// twelve regions — through the same descriptors — and what one writes,
// commits or restores is invisible in the other.
func TestRanksShareTheLayoutNotTheContents(t *testing.T) {
	a := New(0, kernelsim.Unpatched, virtid.ImplSharded, computeScript(8))
	b := New(1, kernelsim.Unpatched, virtid.ImplSharded, computeScript(8))
	if ra, rb := a.Mem().Regions(), b.Mem().Regions(); len(ra) != 12 || !reflect.DeepEqual(ra, rb) {
		t.Fatalf("two new ranks map different regions:\n%+v\n%+v", ra, rb)
	}
	pristine := b.Mem().Regions()
	fp := b.Mem().Fingerprint()
	net := testNet()
	for i := 0; i < 4; i++ {
		a.Execute(net)
	}
	img := a.CaptureImage(false)
	for i := 0; i < 4; i++ {
		a.Execute(net)
	}
	a.Restore(img)
	a.Execute(net)
	if a.Mem().Fingerprint() == fp {
		t.Fatal("the written rank's memory did not change")
	}
	if got := b.Mem().Regions(); !reflect.DeepEqual(got, pristine) || b.Mem().Fingerprint() != fp {
		t.Errorf("writing, capturing and restoring rank 0 changed rank 1's memory:\n%+v", got)
	}
	if got := New(2, kernelsim.Unpatched, virtid.ImplSharded, nil).Mem(); !reflect.DeepEqual(got.Regions(), pristine) || got.Fingerprint() != fp {
		t.Error("a rank built afterwards does not start from the pristine layout")
	}
}

func TestMPICallChargesManaOverhead(t *testing.T) {
	script := []scenario.Op{{Kind: scenario.OpSend, Peer: 1, Bytes: 0, Tag: 0}}
	r := New(0, kernelsim.Unpatched, virtid.ImplSharded, script)
	k := kernelsim.NewForTable(kernelsim.Unpatched, virtid.ImplSharded)
	r.Execute(testNet())
	st := r.Stats()
	if st.MPICalls != 1 {
		t.Fatalf("MPICalls = %d, want 1", st.MPICalls)
	}
	// A blocking send translates the communicator and the datatype (no
	// request is surfaced): two lookups plus the drain-counter metadata
	// record.
	want := k.MANAPerCallOverhead(virtid.LookupCounts{Comm: 1, Datatype: 1}, true)
	if st.ManaOverhead != want {
		t.Errorf("ManaOverhead = %v, want %v (FS round trip + 2 lookups + record)", st.ManaOverhead, want)
	}
	if got := r.Clock().Now(); got != vtime.Time(want) {
		t.Errorf("clock = %v, want %v (zero-byte send costs only MANA overhead)", got, want)
	}
	if st.HandleLookups != 2 || st.CommLookups != 1 || st.DatatypeLookups != 1 || st.RequestLookups != 0 {
		t.Errorf("lookup stats = %d (comm=%d dtype=%d req=%d), want 2 (1/1/0)",
			st.HandleLookups, st.CommLookups, st.DatatypeLookups, st.RequestLookups)
	}
	if st.LookupTime != 2*virtid.ShardedLookupCost {
		t.Errorf("LookupTime = %v, want %v", st.LookupTime, 2*virtid.ShardedLookupCost)
	}
}

func TestPatchedKernelCheaperPerCall(t *testing.T) {
	script := []scenario.Op{{Kind: scenario.OpSend, Peer: 1, Bytes: 0}}
	unp := New(0, kernelsim.Unpatched, virtid.ImplSharded, script)
	pat := New(0, kernelsim.Patched, virtid.ImplSharded, script)
	unp.Execute(testNet())
	pat.Execute(testNet())
	if pat.Stats().ManaOverhead >= unp.Stats().ManaOverhead {
		t.Errorf("patched overhead %v should be below unpatched %v",
			pat.Stats().ManaOverhead, unp.Stats().ManaOverhead)
	}
}

func TestRecvObservesPiggybackedArrival(t *testing.T) {
	net, sent := testNet(), &lastSent{}
	net.SetDeliveryScheduler(sent)
	sender := New(0, kernelsim.Patched, virtid.ImplSharded, []scenario.Op{{Kind: scenario.OpCompute, Dur: 10 * vtime.Millisecond}, {Kind: scenario.OpSend, Peer: 1, Bytes: 1000}})
	receiver := New(1, kernelsim.Patched, virtid.ImplSharded, []scenario.Op{{Kind: scenario.OpRecv, Peer: 0}})

	// Receiver posts first: nothing in flight yet.
	if tr := receiver.Execute(net); tr.Kind != BlockedOnRecv {
		t.Fatalf("recv with nothing in flight: transition %+v, want BlockedOnRecv", tr)
	}
	sender.Execute(net)
	sender.Execute(net)
	m := sent.m
	// The message is in flight but has not arrived: the receiver (clock
	// near zero) cannot observe it yet.
	if receiver.Wake(net, receiver.Clock().Now()) {
		t.Fatal("receive completed before the message's arrival time")
	}
	if !receiver.Wake(net, m.Arrive) {
		t.Fatal("receive failed with an arrived message in flight")
	}
	// The receiver (clock near zero) must advance to the arrival time.
	if got := receiver.Clock().Now(); got < m.Arrive {
		t.Errorf("receiver clock %v behind message arrival %v", got, m.Arrive)
	}
	if receiver.State() != Done {
		t.Errorf("receiver state = %v, want done", receiver.State())
	}
}

func TestCollectiveArriveFinish(t *testing.T) {
	r := New(0, kernelsim.Patched, virtid.ImplSharded, []scenario.Op{{Kind: scenario.OpBarrier}})
	stamp := r.Execute(testNet()).Stamp
	if r.State() != InCollective {
		t.Fatalf("state after arrive = %v, want in-collective", r.State())
	}
	if stamp.Rank != 0 || stamp.When != r.Clock().Now() {
		t.Errorf("arrival stamp %+v inconsistent with clock %v", stamp, r.Clock().Now())
	}
	completion := stamp.When.Add(5 * vtime.Microsecond)
	r.FinishCollective(completion)
	if got := r.Clock().Now(); got != completion {
		t.Errorf("clock after finish = %v, want %v", got, completion)
	}
	if r.State() != Done {
		t.Errorf("state = %v, want done", r.State())
	}
	if r.Stats().Collectives != 1 {
		t.Errorf("Collectives = %d, want 1", r.Stats().Collectives)
	}
}

func TestImageRoundTripRestoresExactState(t *testing.T) {
	net := testNet()
	script := []scenario.Op{
		{Kind: scenario.OpCompute, Dur: 1 * vtime.Millisecond},
		{Kind: scenario.OpSbrk, Bytes: 128 << 10},
		{Kind: scenario.OpCompute, Dur: 2 * vtime.Millisecond},
	}
	r := New(0, kernelsim.Unpatched, virtid.ImplSharded, script)
	r.Execute(net)
	r.Execute(net)
	img := r.CaptureImage(false)

	// Run past the checkpoint, then restore.
	r.Execute(net)
	if r.State() != Done {
		t.Fatalf("state = %v, want done before restore", r.State())
	}
	r.Restore(img)
	if r.PC() != 2 || r.Clock().Now() != img.Clock {
		t.Fatalf("restore pc/clock = %d/%v, want %d/%v", r.PC(), r.Clock().Now(), img.PC, img.Clock)
	}
	if !r.Mem().PostRestart() {
		t.Error("address space should be marked post-restart")
	}
	// Upper half must match the image bit for bit; replaying the rest of
	// the script must land in the same final state as the original run.
	if snap := r.Mem().SnapshotUpperHalf(); !snap.Equal(img.Mem) {
		t.Error("restored upper half differs from image")
	}
	if got := r.Mem().BytesOf(memsim.LowerHalf); got == 0 {
		t.Error("lower half empty after restore; restart must rebuild it")
	}
	r.Execute(net)
	if r.State() != Done {
		t.Errorf("replay did not complete the script")
	}
}

func TestDrainedInboxSurvivesCheckpointAndFeedsRecv(t *testing.T) {
	net := testNet()
	sender := New(0, kernelsim.Patched, virtid.ImplSharded, []scenario.Op{{Kind: scenario.OpSend, Peer: 1, Bytes: 500, Tag: 9}})
	receiver := New(1, kernelsim.Patched, virtid.ImplSharded, []scenario.Op{{Kind: scenario.OpRecv, Peer: 0, Tag: 9}})
	sender.Execute(net)

	// Checkpoint-time drain: the in-flight message is buffered at the
	// receiver, the network quiesces, and the image carries the buffer.
	for _, m := range net.DrainTo(1, nil) {
		receiver.BufferDrained(m)
	}
	if net.InFlight() != 0 {
		t.Fatalf("network not quiescent after drain: %d in flight", net.InFlight())
	}
	if receiver.InboxLen() != 1 {
		t.Fatalf("inbox = %d messages, want 1", receiver.InboxLen())
	}
	img := receiver.CaptureImage(false)
	if len(img.Inbox) != 1 {
		t.Fatalf("image inbox = %d messages, want 1", len(img.Inbox))
	}

	receiver.Restore(img)
	// The restored receiver consumes the buffered message with no network
	// traffic at all — and with no arrival gate: the drain already
	// received it off the network.
	if tr := receiver.Execute(net); tr.Kind != Advanced {
		t.Fatalf("recv after restore failed to consume drained message: transition %+v", tr)
	}
	if receiver.InboxLen() != 0 {
		t.Errorf("inbox not consumed: %d left", receiver.InboxLen())
	}
	if receiver.Stats().MsgsRecvd != 1 {
		t.Errorf("MsgsRecvd = %d, want 1", receiver.Stats().MsgsRecvd)
	}
}

func TestStatsRestoredFromImage(t *testing.T) {
	net := testNet()
	script := []scenario.Op{
		{Kind: scenario.OpSend, Peer: 1, Bytes: 100},
		{Kind: scenario.OpSend, Peer: 1, Bytes: 100},
	}
	r := New(0, kernelsim.Unpatched, virtid.ImplSharded, script)
	r.Execute(net)
	img := r.CaptureImage(false)
	r.Execute(net)
	if r.Stats().MsgsSent != 2 {
		t.Fatalf("MsgsSent = %d, want 2", r.Stats().MsgsSent)
	}
	r.Restore(img)
	if r.Stats().MsgsSent != 1 {
		t.Errorf("restored MsgsSent = %d, want 1 (stats are part of the image)", r.Stats().MsgsSent)
	}
}

func TestExecuteTransitions(t *testing.T) {
	net := testNet()
	r := New(0, kernelsim.Patched, virtid.ImplSharded, []scenario.Op{
		{Kind: scenario.OpCompute, Dur: 1 * vtime.Millisecond},
		{Kind: scenario.OpRecv, Peer: 1},
		{Kind: scenario.OpBarrier},
	})

	if tm, ok := r.NextReady(); !ok || tm != 0 {
		t.Fatalf("NextReady = (%v, %v), want (0, true)", tm, ok)
	}
	tr := r.Execute(net)
	if tr.Kind != Advanced || r.Stats().ComputeTime != 1*vtime.Millisecond {
		t.Fatalf("compute transition = %+v with %v computed, want Advanced after 1ms", tr, r.Stats().ComputeTime)
	}
	if tm, ok := r.NextReady(); !ok || tm != r.Clock().Now() {
		t.Fatalf("NextReady after compute = (%v, %v), want clock time", tm, ok)
	}

	// Receive with nothing in flight: the rank blocks and reports the
	// peer it waits on; a blocked rank has no ready time.
	tr = r.Execute(net)
	if tr.Kind != BlockedOnRecv {
		t.Fatalf("recv transition = %+v, want BlockedOnRecv", tr)
	}
	if r.State() != BlockedRecv {
		t.Fatalf("state = %v, want blocked-recv", r.State())
	}
	if peer, ok := r.BlockedOn(); !ok || peer != 1 {
		t.Errorf("BlockedOn = (%d, %v), want (1, true)", peer, ok)
	}
	if _, ok := r.NextReady(); ok {
		t.Error("blocked rank reported a ready time")
	}

	// A wake with no matching message leaves the rank blocked.
	if r.Wake(net, r.Clock().Now()) {
		t.Fatal("Wake succeeded with nothing in flight")
	}
	if r.State() != BlockedRecv {
		t.Fatalf("state after failed wake = %v, want blocked-recv", r.State())
	}

	// A wake at the matching message's arrival time completes the receive.
	sent := &lastSent{}
	net.SetDeliveryScheduler(sent)
	sender := New(1, kernelsim.Patched, virtid.ImplSharded, []scenario.Op{{Kind: scenario.OpSend, Peer: 0, Bytes: 100}})
	sender.Execute(net)
	if !r.Wake(net, sent.m.Arrive) {
		t.Fatal("Wake failed with a matching message arrived")
	}
	if r.Stats().MsgsRecvd != 1 {
		t.Errorf("MsgsRecvd = %d, want 1", r.Stats().MsgsRecvd)
	}

	// The barrier transition hands back the arrival stamp.
	tr = r.Execute(net)
	if tr.Kind != JoinedCollective {
		t.Fatalf("barrier transition = %+v, want JoinedCollective", tr)
	}
	if tr.Stamp.Rank != 0 || tr.Stamp.When != r.Clock().Now() {
		t.Errorf("arrival stamp %+v inconsistent with clock %v", tr.Stamp, r.Clock().Now())
	}
	if _, ok := r.NextReady(); ok {
		t.Error("in-collective rank reported a ready time")
	}
	r.FinishCollective(r.Clock().Now().Add(1 * vtime.Microsecond))
	if r.State() != Done {
		t.Errorf("state = %v, want done after script exhausted", r.State())
	}
	if _, ok := r.NextReady(); ok {
		t.Error("done rank reported a ready time")
	}
}

func TestWakeConsumesInboxBeforeNetwork(t *testing.T) {
	net := testNet()
	r := New(1, kernelsim.Patched, virtid.ImplSharded, []scenario.Op{{Kind: scenario.OpRecv, Peer: 0}})
	if tr := r.Execute(net); tr.Kind != BlockedOnRecv {
		t.Fatalf("transition = %+v, want BlockedOnRecv", tr)
	}
	// A checkpoint drain buffers the message into the inbox while the
	// rank is blocked; the wake must find it there.
	sender := New(0, kernelsim.Patched, virtid.ImplSharded, []scenario.Op{{Kind: scenario.OpSend, Peer: 1, Bytes: 64}})
	sender.Execute(net)
	for _, m := range net.DrainTo(1, nil) {
		r.BufferDrained(m)
	}
	if !r.Wake(net, r.Clock().Now()) {
		t.Fatal("Wake failed to consume the drain-buffered message")
	}
	if r.InboxLen() != 0 {
		t.Errorf("inbox not consumed: %d left", r.InboxLen())
	}
	if r.State() != Done {
		t.Errorf("state = %v, want done", r.State())
	}
}

// TestIsendWaitRequestLifecycle pins the nonblocking request handle
// lifecycle: Isend registers a live request in the virtualisation table,
// the matching Wait translates it once more and retires it for good.
func TestIsendWaitRequestLifecycle(t *testing.T) {
	net := testNet()
	r := New(0, kernelsim.Patched, virtid.ImplSharded, []scenario.Op{
		{Kind: scenario.OpIsend, Peer: 1, Bytes: 100, Tag: 1},
		{Kind: scenario.OpWait},
	})
	r.Execute(net)
	pending := r.PendingRequests()
	if len(pending) != 1 {
		t.Fatalf("pending requests = %d, want 1", len(pending))
	}
	req := pending[0]
	if _, ok := r.Virtid().Lookup(virtid.Request, req); !ok {
		t.Fatal("posted request does not resolve in the table")
	}
	// The post is a write (the request is born, not translated): one
	// handle write, no request lookup yet.
	if st := r.Stats(); st.RequestLookups != 0 || st.HandleWrites != 1 {
		t.Errorf("after isend: RequestLookups=%d HandleWrites=%d, want 0/1", st.RequestLookups, st.HandleWrites)
	}
	r.Execute(net)
	if len(r.PendingRequests()) != 0 {
		t.Error("pending requests not drained by wait")
	}
	if _, ok := r.Virtid().Lookup(virtid.Request, req); ok {
		t.Error("retired request still resolves")
	}
	// The wait translates the request once and retires it: one request
	// lookup, one more write.
	if st := r.Stats(); st.RequestLookups != 1 || st.HandleWrites != 2 {
		t.Errorf("after wait: RequestLookups=%d HandleWrites=%d, want 1/2", st.RequestLookups, st.HandleWrites)
	}
	if st := r.Stats(); st.WriteTime != 2*virtid.ShardedWriteCost {
		t.Errorf("WriteTime = %v, want %v", st.WriteTime, 2*virtid.ShardedWriteCost)
	}
	if r.State() != Done {
		t.Errorf("state = %v, want done", r.State())
	}
}

// TestWaitWithoutRequestPanics pins the detectability property for the
// wait side: waiting with nothing outstanding is a virtualisation bug,
// not a silent no-op.
func TestWaitWithoutRequestPanics(t *testing.T) {
	r := New(0, kernelsim.Patched, virtid.ImplSharded, []scenario.Op{{Kind: scenario.OpWait}})
	defer func() {
		if recover() == nil {
			t.Error("a wait with no outstanding request did not panic")
		}
	}()
	r.Execute(testNet())
}

// TestSendPanicsOnMissingHandle pins the other detectability property:
// the send path performs a real communicator lookup, so a handle missing
// from the table (here: maliciously deregistered) is a loud failure, not
// a silently wrong cost charge.
func TestSendPanicsOnMissingHandle(t *testing.T) {
	r := New(0, kernelsim.Patched, virtid.ImplSharded, []scenario.Op{{Kind: scenario.OpSend, Peer: 1, Bytes: 64}})
	snap := r.Virtid().Snapshot()
	if len(snap.Entries[virtid.Comm]) != 1 {
		t.Fatalf("expected exactly one registered communicator, got %d", len(snap.Entries[virtid.Comm]))
	}
	r.Virtid().Deregister(virtid.Comm, snap.Entries[virtid.Comm][0].VID)
	defer func() {
		if recover() == nil {
			t.Error("a send with a missing communicator handle did not panic")
		}
	}()
	r.Execute(testNet())
}

// TestVirtidRebuiltFromImageAndStaleHandlesDie is the §3.2 restart
// property at the rank level: a checkpoint taken while a nonblocking
// request is outstanding carries that live handle (it must resolve after
// restore, and the pending wait must complete against it), while handles
// minted in the abandoned timeline must not resolve — and replay must
// re-mint exactly the ids the dead timeline used.
func TestVirtidRebuiltFromImageAndStaleHandlesDie(t *testing.T) {
	for _, impl := range []virtid.Impl{virtid.ImplMutex, virtid.ImplSharded} {
		t.Run(impl.String(), func(t *testing.T) {
			net := testNet()
			script := []scenario.Op{
				{Kind: scenario.OpIsend, Peer: 1, Bytes: 64, Tag: 0},
				{Kind: scenario.OpWait},
				{Kind: scenario.OpIsend, Peer: 1, Bytes: 64, Tag: 1},
				{Kind: scenario.OpWait},
			}
			r := New(0, kernelsim.Patched, impl, script)
			r.Execute(net) // first isend: request live across the checkpoint
			img := r.CaptureImage(false)
			live := img.PendingReqs
			if len(live) != 1 {
				t.Fatalf("image pending requests = %d, want 1", len(live))
			}
			if len(img.Virt.Entries[virtid.Request]) != 1 {
				t.Fatalf("image request table entries = %d, want 1", len(img.Virt.Entries[virtid.Request]))
			}

			// The timeline runs on past the checkpoint: the wait retires the
			// live request and a second isend mints a new one.
			r.Execute(net) // wait
			r.Execute(net) // second isend
			stale := r.PendingRequests()[0]
			if stale == live[0] {
				t.Fatalf("second isend reused VID %d", stale)
			}

			r.Restore(img)
			if _, ok := r.Virtid().Lookup(virtid.Request, live[0]); !ok {
				t.Error("request live at checkpoint time does not resolve after restore")
			}
			if _, ok := r.Virtid().Lookup(virtid.Request, stale); ok {
				t.Error("stale request from the dead timeline resolves after restore")
			}
			got := r.PendingRequests()
			if len(got) != 1 || got[0] != live[0] {
				t.Fatalf("restored pending requests = %v, want %v", got, live)
			}

			// Replay: the wait completes against the restored handle, and the
			// re-executed second isend mints exactly the dead timeline's id.
			r.Execute(net) // wait (replayed)
			r.Execute(net) // second isend (replayed)
			if remint := r.PendingRequests()[0]; remint != stale {
				t.Errorf("replayed isend minted VID %d, want %d (deterministic reallocation)", remint, stale)
			}
			r.Execute(net) // final wait
			if r.State() != Done {
				t.Errorf("state = %v, want done after replay", r.State())
			}
		})
	}
}

// TestImageVirtSnapshotMatchesTable verifies CaptureImage embeds the
// table state exactly as Snapshot reports it, for both implementations.
func TestImageVirtSnapshotMatchesTable(t *testing.T) {
	for _, impl := range []virtid.Impl{virtid.ImplMutex, virtid.ImplSharded} {
		r := New(0, kernelsim.Patched, impl, nil)
		img := r.CaptureImage(false)
		want := r.Virtid().Snapshot()
		if img.Virt.Next != want.Next {
			t.Errorf("%v: image Next = %v, want %v", impl, img.Virt.Next, want.Next)
		}
		if img.Virt.Live() != want.Live() || img.Virt.Live() != 2 {
			t.Errorf("%v: image live entries = %d, want 2 (comm + datatype)", impl, img.Virt.Live())
		}
	}
}

// TestCommSplitMintsSlotAndSurvivesImage walks one rank through an
// MPI_Comm_split: arrival charges the call, FinishCommSplit registers
// the new communicator handle (a priced table write), collectives can
// then target the new slot, and a checkpoint image round-trips the slot
// table so that a restored rank still resolves the sub-communicator —
// while a split minted after the image dies with its timeline.
func TestCommSplitMintsSlotAndSurvivesImage(t *testing.T) {
	script := []scenario.Op{
		{Kind: scenario.OpCommSplit, Comm: 0, Color: 3},
		{Kind: scenario.OpBarrier, Comm: 1},
		{Kind: scenario.OpCommSplit, Comm: 0, Color: 1},
	}
	r := New(0, kernelsim.Patched, virtid.ImplSharded, script)
	if got := r.CommCount(); got != 1 {
		t.Fatalf("initial comm slots = %d, want 1 (world)", got)
	}

	tr := r.Execute(testNet())
	if tr.Kind != JoinedCollective || tr.Coll.Kind != scenario.OpCommSplit || tr.Coll.Color != 3 {
		t.Fatalf("split arrival transition = %+v, want joined-collective comm-split colour 3", tr)
	}
	writesBefore := r.Stats().HandleWrites
	r.FinishCommSplit(r.Clock().Now().Add(2*vtime.Microsecond), 5, RealCommBase+5)
	if got := r.CommCount(); got != 2 {
		t.Fatalf("comm slots after split = %d, want 2", got)
	}
	if got := r.CommID(1); got != 5 {
		t.Errorf("slot 1 comm id = %d, want 5", got)
	}
	if got := r.Stats().CommSplits; got != 1 {
		t.Errorf("CommSplits = %d, want 1", got)
	}
	if got := r.Stats().HandleWrites; got != writesBefore+1 {
		t.Errorf("HandleWrites = %d, want %d (the registration is a priced table write)", got, writesBefore+1)
	}
	if got := r.Virtid().Len(virtid.Comm); got != 2 {
		t.Errorf("live comm handles = %d, want 2 (world + split)", got)
	}

	// The barrier on the new slot translates the sub-communicator handle.
	if tr := r.Execute(testNet()); tr.Kind != JoinedCollective {
		t.Fatalf("barrier on split comm: transition %+v", tr)
	}
	r.FinishCollective(r.Clock().Now().Add(vtime.Microsecond))

	img := r.CaptureImage(false)
	if len(img.Comms) != 2 || len(img.CommIDs) != 2 || img.CommIDs[1] != 5 {
		t.Fatalf("image comm table = %v/%v, want 2 slots with id 5 in slot 1", img.Comms, img.CommIDs)
	}

	// A second split past the checkpoint belongs to the dead timeline.
	r.Execute(testNet())
	r.FinishCommSplit(r.Clock().Now(), 9, RealCommBase+9)
	if got := r.CommCount(); got != 3 {
		t.Fatalf("comm slots after second split = %d, want 3", got)
	}
	r.Restore(img)
	if got := r.CommCount(); got != 2 {
		t.Errorf("restored comm slots = %d, want 2 (post-image split must die)", got)
	}
	if _, ok := r.Virtid().Lookup(virtid.Comm, img.Comms[1]); !ok {
		t.Error("restored sub-communicator handle does not resolve")
	}
	if got := r.Virtid().Len(virtid.Comm); got != 2 {
		t.Errorf("restored live comm handles = %d, want 2", got)
	}
}
