package coordinator

import (
	"reflect"
	"slices"
	"strings"

	"mana/internal/memsim"
	"mana/internal/rank"
	"mana/internal/scenario"
	"mana/internal/virtid"
	"mana/internal/vtime"
)

// OnDispatch installs f as the hook the event loop calls with the time
// of every event it dispatches, for the tests of the coordinator_test
// package.
func (c *Coordinator) OnDispatch(f func(vtime.Time)) { c.dispatched = f }

// SetStepwise turns run-ahead off (on = true) or back on: with it off,
// every operation a rank executes is a queue event of its own.
func (c *Coordinator) SetStepwise(on bool) { c.stepwise = on }

// RanAhead returns how many operations ranks ran ahead of the queue.
func (c *Coordinator) RanAhead() uint64 { return c.ranAhead }

// QueueCap returns the event queue's arena capacity in events.
func (c *Coordinator) QueueCap() int { return c.queue.Cap() }

// LongestRing returns the most slots any pair ring of the network holds:
// per pair a rank has sent on, its room, its queued messages — what the
// sender counts sent less what the receiver counts received — and the
// one slot of slack.
func (c *Coordinator) LongestRing() int {
	longest := 0
	for _, r := range c.ranks {
		for _, pc := range r.Counts() {
			if pc.Sent == 0 {
				continue
			}
			queued := pc.Sent - received(c.ranks[pc.Peer], r.ID())
			longest = max(longest, c.net.Room(r.ID(), pc.Peer)+int(queued)+1)
		}
	}
	return longest
}

// received returns how many messages r counts received from peer.
func received(r *rank.Rank, peer int) uint64 {
	for _, pc := range r.Counts() {
		if pc.Peer == peer {
			return pc.Received
		}
	}
	return 0
}

// upperTable returns the length and capacity of the rank's upper-half
// region table. memsim exports no observer of it (one no run reaches
// would join cmd/manasim/testdata/unreached.txt), so this reads
// AddressSpace.regions[UpperHalf] by reflection, writing nothing.
func upperTable(r *rank.Rank) (n, capacity int) {
	upper := reflect.ValueOf(r.Mem()).Elem().FieldByName("regions").Index(int(memsim.UpperHalf))
	return upper.Len(), upper.Cap()
}

// OnCommit installs f as the hook the commit stage calls with the seq of
// every checkpoint, once the generation store holds its link.
func (c *Coordinator) OnCommit(f func(seq int)) { c.committed = f }

// Report renders the run's report (WriteReport) into a string, for tests
// that compare whole reports.
func (c *Coordinator) Report() string {
	var b strings.Builder
	c.WriteReport(&b)
	return b.String()
}

// DefaultConfig returns a runnable 8-rank configuration: the default
// library spec at 30 steps.
func DefaultConfig() Config {
	cfg := BaseConfig()
	cfg.Programs = mustPrograms("default", scenario.Params{Ranks: 8, Steps: 30, Seed: 42})
	return cfg
}

// mustPrograms loads a library spec and compiles it, panicking on any
// error: the tests name specs known to compile.
func mustPrograms(name string, p scenario.Params) []scenario.Program {
	spec, err := scenario.Load(name)
	if err != nil {
		panic(err)
	}
	progs, err := spec.Compile(p)
	if err != nil {
		panic(err)
	}
	return progs
}

// perRank builds one Program per rank from a function, to stage protocol
// situations no declarative spec expresses.
func perRank(ranks int, f func(id int) []scenario.Op) []scenario.Program {
	progs := make([]scenario.Program, ranks)
	for id := range progs {
		progs[id] = f(id)
	}
	return progs
}

// rankView is what a rank exports of its state, as reflect.DeepEqual
// compares it, plus its upper-half region table's length and capacity.
type rankView struct {
	ID, PC       int
	State        rank.State
	Clock        vtime.Time
	Stats        rank.Stats
	Counts       []rank.PeerCount
	CkptOverhead vtime.Duration
	CommIDs      []int
	Requests     []virtid.VID
	Inbox        int
	BlockedOn    int // -1 unless blocked in a receive
	Handles      *virtid.Snapshot
	Memory       uint64 // MemFingerprint
	Table        [2]int
}

func viewRank(r *rank.Rank) rankView {
	v := rankView{
		ID: r.ID(), PC: r.PC(), State: r.State(), Clock: r.Clock().Now(),
		Stats: r.Stats(), Counts: r.Counts(), CkptOverhead: r.CkptOverhead(),
		Requests: r.PendingRequests(), Inbox: r.InboxLen(), BlockedOn: -1,
		Handles: r.Virtid().Snapshot(),
	}
	for slot := 0; slot < r.CommCount(); slot++ {
		v.CommIDs = append(v.CommIDs, r.CommID(slot))
	}
	if peer, ok := r.BlockedOn(); ok {
		v.BlockedOn = peer
	}
	var scratch []byte
	v.Memory = r.MemFingerprint(&scratch)
	v.Table[0], v.Table[1] = upperTable(r)
	return v
}

// queued is one event of a timeline's queue.
type queued struct {
	At vtime.Time
	Ev event
}

// formingView is one in-flight rendezvous.
type formingView struct {
	Comm, Kind int
	Seq, Bytes uint64
	Latest     vtime.Time
	Ranks      []int
	Colors     []int
	Scheduled  bool
}

// commView is one communicator: its live count and the rendezvous
// forming on it, if any.
type commView struct {
	Live    int
	Forming *formingView
}

// netView is what a network exports of its state.
type netView struct {
	InFlight    uint64
	LongestRing int
}

// timelineView returns every field of the job's current timeline, keyed
// by the field's name, as a plain value reflect.DeepEqual compares: the
// ranks through viewRank, the network through netView, the rendezvous
// on its communicator and in instance order. It empties the event queue,
// whose events it lists in pop order, so the timeline cannot run on
// after it.
func (c *Coordinator) timelineView() map[string]any {
	tl := c.timeline
	ranks := make([]rankView, len(tl.ranks))
	for i, r := range tl.ranks {
		ranks[i] = viewRank(r)
	}
	var events []queued
	for {
		at, ev, ok := tl.queue.Pop()
		if !ok {
			break
		}
		events = append(events, queued{at, ev})
	}
	viewForming := func(f *forming) formingView {
		return formingView{
			Comm: f.commID, Kind: int(f.kind), Seq: f.seq, Bytes: f.bytes,
			Latest: f.latest, Ranks: f.ranks, Colors: f.colors,
			Scheduled: f.scheduled,
		}
	}
	collList := make([]formingView, len(tl.collList))
	for i, f := range tl.collList {
		collList[i] = viewForming(f)
	}
	comms := make([]commView, len(tl.comms))
	for i, m := range tl.comms {
		comms[i] = commView{Live: m.live}
		if m.forming != nil {
			f := viewForming(m.forming)
			comms[i].Forming = &f
		}
	}
	return map[string]any{
		"ranks":       ranks,
		"net":         netView{tl.net.InFlight(), c.LongestRing()},
		"queue":       events,
		"globals":     slices.Sorted(slices.Values(tl.globals)),
		"armed":       tl.armed,
		"pending":     tl.pending,
		"comms":       comms,
		"collList":    collList,
		"collSeq":     tl.collSeq,
		"formingPool": len(tl.formingPool),
		"plan":        tl.plan,
	}
}
