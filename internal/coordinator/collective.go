// Collective layer: the rendezvous of in-flight collectives, one per
// communicator, and the dependency-ordered drain that finishes them
// before a checkpoint is cut (paper §3.2).
//
// A collective forms on its communicator as members arrive and completes
// once every live member has: a member whose script ends lowers the
// communicator's bar, possibly completing a collective already waiting.
//
// The drain planner is the topological-sort collective drain of
// arXiv:2408.02218 ("Enabling Practical Transparent Checkpointing for
// MPI: A Topological Sort Approach", §4), applied to the simulator's
// event-driven coordinator.
//
// When a checkpoint request arrives while collectives are in flight, the
// two-phase protocol (paper §3.2) must first reach a state in which no
// rank is inside a collective. With a single world communicator that is
// just "wait for the collective to finish"; with sub-communicators,
// several collectives on *overlapping* communicators can be partially
// arrived at once, and they can only complete in an order consistent
// with their shared ranks: if rank r is waiting inside collective C' and
// is also a not-yet-arrived member of collective C, then C' must
// complete before C can. The planner builds exactly that graph — nodes
// are in-flight collectives, edges are induced by shared ranks — and
// checks that it can be topologically sorted. A cycle means two ranks
// ordered the same pair of collectives differently, which is an
// application deadlock with or without a checkpoint, and is reported as
// such, naming the ranks and collectives involved.
//
// The drain itself is executed as ordinary scheduler events: ranks the
// plan still needs keep executing (entering planned collectives,
// feeding blocked receivers), while ranks the plan does not need are
// held at their next collective boundary — their safe point — until the
// checkpoint commits. Collectives that become in-flight while the drain
// runs (a needed rank must pass through them to reach a planned one)
// join the plan; "needed" propagates through blocked-receive chains so
// a held sender can never starve a planned collective.
package coordinator

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"mana/internal/faultplan"
	"mana/internal/netsim"
	"mana/internal/rank"
	"mana/internal/scenario"
	"mana/internal/virtid"
	"mana/internal/vtime"
)

// comm is one communicator the job knows: id 0 is MPI_COMM_WORLD,
// higher ids are minted by comm-split completions in deterministic
// (colour-sorted) order. Its members are the ranks holding a slot for its
// id; live counts those whose scripts are not exhausted — the
// participation bar a collective on the communicator must reach — and
// forming is the collective in flight on it, if any.
type comm struct {
	live    int
	forming *forming
}

// forming is the rendezvous of one in-flight collective: the ranks that
// have arrived at the collective currently forming on one communicator,
// in arrival order, and the latest of their arrival times.
type forming struct {
	commID int
	seq    uint64 // global collective-instance number (deterministic)
	kind   netsim.CollectiveKind
	bytes  uint64
	latest vtime.Time
	ranks  []int
	colors []int // per-arrival colours, comm-splits only
	// scheduled marks that the completion event is queued.
	scheduled bool
}

// commsOf builds the communicator registry from the ranks' slot tables:
// each communicator's live count is the number of unfinished ranks
// holding a slot for its id, and the next split of a restored timeline
// mints max-id+1 — exactly what the replayed timeline's split would have
// minted.
func commsOf(ranks []*rank.Rank) []comm {
	n := 1
	for _, r := range ranks {
		for slot := 1; slot < r.CommCount(); slot++ {
			n = max(n, r.CommID(slot)+1)
		}
	}
	comms := make([]comm, n)
	for _, r := range ranks {
		if r.State() == rank.Done {
			continue
		}
		for slot := 0; slot < r.CommCount(); slot++ {
			comms[r.CommID(slot)].live++
		}
	}
	return comms
}

// waitingIn returns the communicator r is waiting in, or -1 when it is
// not inside a collective: an arrived rank's pc stays on its collective
// until the completion finishes it.
func waitingIn(r *rank.Rank) int {
	if r.State() != rank.InCollective {
		return -1
	}
	slot, _ := r.AtCollective()
	return r.CommID(slot)
}

// inCollective counts the ranks currently waiting inside any forming
// collective.
func (c *Coordinator) inCollective() int {
	n := 0
	for _, f := range c.collList {
		n += len(f.ranks)
	}
	return n
}

// collectiveInProgress reports whether any collective is in flight.
func (c *Coordinator) collectiveInProgress() bool { return len(c.collList) > 0 }

// atSafePoint reports whether a checkpoint may proceed: no collective is
// in flight on any communicator (paper §3.2 — a checkpoint either
// completes the in-flight collectives first, in dependency order, or
// sits out until they have).
func (c *Coordinator) atSafePoint() bool { return !c.collectiveInProgress() }

// newForming starts the rendezvous of a collective on one communicator,
// recycling a completed instance's storage when one is available and
// otherwise sizing it for the communicator's live members: each
// timeline starts with an empty pool.
func (c *Coordinator) newForming(commID int, kind netsim.CollectiveKind, bytes uint64) *forming {
	var f *forming
	if n := len(c.formingPool); n > 0 {
		f = c.formingPool[n-1]
		c.formingPool = c.formingPool[:n-1]
	} else {
		f = &forming{ranks: make([]int, 0, c.comms[commID].live)}
	}
	f.commID = commID
	f.seq = c.collSeq
	c.collSeq++
	f.kind = kind
	f.bytes = bytes
	c.comms[commID].forming = f
	c.collList = append(c.collList, f)
	return f
}

// removeForming retires a completed rendezvous and recycles its storage.
func (c *Coordinator) removeForming(f *forming) {
	c.comms[f.commID].forming = nil
	for i, g := range c.collList {
		if g == f {
			c.collList = append(c.collList[:i], c.collList[i+1:]...)
			break
		}
	}
	f.latest = 0
	f.ranks = f.ranks[:0]
	f.colors = f.colors[:0]
	f.scheduled = false
	c.formingPool = append(c.formingPool, f)
}

// maybeScheduleCollectiveDone schedules one collective's completion
// event once every live member of its communicator has arrived:
// completion time is the latest arrival time plus the modelled
// collective cost.
func (c *Coordinator) maybeScheduleCollectiveDone(f *forming) {
	n := len(f.ranks)
	if f.scheduled || n == 0 || n < c.comms[f.commID].live {
		return
	}
	completion := f.latest.Add(c.cfg.Net.CollectiveCost(f.kind, n, f.bytes))
	f.scheduled = true
	c.queue.Push(completion, indexEvent(evCollectiveDone, f.commID))
}

// collectiveKindOf maps a collective op onto the network cost model.
func collectiveKindOf(k scenario.OpKind) netsim.CollectiveKind {
	switch k {
	case scenario.OpBarrier:
		return netsim.Barrier
	case scenario.OpAllreduce:
		return netsim.Allreduce
	case scenario.OpCommSplit:
		return netsim.CommSplit
	default:
		panic(fmt.Sprintf("coordinator: op %v is not a collective", k))
	}
}

// ErrCollectiveMismatch means the ranks' programs disagree on a
// collective: a rank arrived at a different kind of collective than the
// one forming on its communicator, or arrived after every live member
// had and the completion was scheduled. Programs compiled from a spec
// cannot do that; programs built op by op can.
var ErrCollectiveMismatch = errors.New("coordinator: ranks disagree on a collective")

// joinCollective records one rank's arrival at the collective forming on
// its target communicator, starting the rendezvous if this is the first
// arrival. While a drain is in progress, a newly started collective
// joins the plan (only ranks the plan needs reach this point — everyone
// else is held at the boundary); an arrival at a collective already
// forming is one the plan waited for, since the rank had not arrived
// and was live when the plan took the collective, so the rank's need
// drops by one.
func (c *Coordinator) joinCollective(r *rank.Rank, tr *rank.Transition) error {
	commID := r.CommID(tr.Coll.Comm)
	kind := collectiveKindOf(tr.Coll.Kind)
	f := c.comms[commID].forming
	started := f == nil
	switch {
	case started:
		f = c.newForming(commID, kind, tr.Coll.Bytes)
	case f.scheduled:
		return fmt.Errorf("%w: rank %d arrived at %v on comm %d after its completion was scheduled",
			ErrCollectiveMismatch, r.ID(), kind, commID)
	case f.kind != kind:
		return fmt.Errorf("%w: rank %d arrived at %v while %v is forming on comm %d",
			ErrCollectiveMismatch, r.ID(), kind, f.kind, commID)
	}
	f.latest = max(f.latest, tr.Stamp.When)
	f.ranks = append(f.ranks, r.ID())
	if kind == netsim.CommSplit {
		f.colors = append(f.colors, tr.Coll.Color)
	}
	if c.draining() {
		if started {
			c.extendPlan(f)
		} else {
			c.plan.needed[r.ID()]--
		}
	}
	c.maybeScheduleCollectiveDone(f)
	return nil
}

// completeCollective finishes one communicator's collective for every
// participant: each advances to the completion time and its next ready
// event is scheduled. A comm-split additionally mints the new
// sub-communicators: arrivals are grouped by colour (colours ascending,
// members sorted), each group is assigned the next global communicator
// id, and every member registers the new handle in its virtualisation
// table — all deterministic, so restart replay re-mints identical ids.
func (c *Coordinator) completeCollective(commID int, completion vtime.Time) {
	f := c.comms[commID].forming
	if f.kind == netsim.CommSplit {
		byColor := make(map[int][]int, 4)
		colors := make([]int, 0, 4)
		for i, id := range f.ranks {
			color := f.colors[i]
			if _, ok := byColor[color]; !ok {
				colors = append(colors, color)
			}
			byColor[color] = append(byColor[color], id)
		}
		sort.Ints(colors)
		for _, color := range colors {
			members := byColor[color]
			sort.Ints(members)
			id := len(c.comms)
			c.comms = append(c.comms, comm{live: len(members)})
			for _, m := range members {
				c.rankVisits++
				r := c.ranks[m]
				r.FinishCommSplit(completion, id, rank.RealCommBase+virtid.Real(id))
				c.afterRankProgress(r, false)
			}
		}
	} else {
		for _, id := range f.ranks {
			c.rankVisits++
			r := c.ranks[id]
			r.FinishCollective(completion)
			c.afterRankProgress(r, false)
		}
	}
	c.removeForming(f)
}

// noteDone records r's script ending and re-checks every forming
// collective: a finished rank lowers the participation bar of each
// communicator it holds a slot for, possibly making their completions
// schedulable. collList order keeps the re-check — and thus queue push
// order — deterministic.
func (c *Coordinator) noteDone(r *rank.Rank) {
	for slot := 0; slot < r.CommCount(); slot++ {
		c.comms[r.CommID(slot)].live--
	}
	for _, f := range c.collList {
		c.maybeScheduleCollectiveDone(f)
	}
}

// drainNode is one in-flight collective in the dependency graph: the
// rendezvous forming on communicator comm (instance seq), with the live
// members it still waits for.
type drainNode struct {
	comm    int
	seq     uint64
	kind    netsim.CollectiveKind
	waiting []int
}

// label renders the node for diagnostics and plan listings.
func (n drainNode) label() string {
	return fmt.Sprintf("comm %d %v (#%d)", n.comm, n.kind, n.seq)
}

// drainEdge records "from must complete before to can": rank via is
// waiting inside node from and is a not-yet-arrived member of node to.
type drainEdge struct {
	from, to int // indexes into the node slice
	via      int // the shared rank inducing the edge
}

// checkAcyclic reports whether the graph can be drained: whether some
// order completes every edge's from-node before its to-node. It runs
// Kahn's algorithm and keeps no order, since the drain executes through
// the plan's needed set rather than a list; the nodes it cannot drain,
// and so their in-degrees, are the same whatever order it pops them in.
// A cycle is an application deadlock; the error names the collectives
// and the ranks whose conflicting arrival orders close the cycle.
func checkAcyclic(nodes []drainNode, edges []drainEdge) error {
	indeg := make([]int, len(nodes))
	succ := make([][]int, len(nodes))
	for _, e := range edges {
		indeg[e.to]++
		succ[e.from] = append(succ[e.from], e.to)
	}
	var ready []int
	for i := range nodes {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	drained := 0
	for len(ready) > 0 {
		n := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		drained++
		for _, s := range succ[n] {
			if indeg[s]--; indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	if drained == len(nodes) {
		return nil
	}
	return cycleError(nodes, edges, indeg)
}

// cycleError extracts one cycle among the nodes Kahn's algorithm could
// not drain and renders the deadlock it proves: for every edge on the
// cycle, which rank is waiting inside which collective while another
// collective cannot complete without it.
func cycleError(nodes []drainNode, edges []drainEdge, indeg []int) error {
	remaining := make(map[int]bool)
	for i := range nodes {
		if indeg[i] > 0 {
			remaining[i] = true
		}
	}
	// pred[i] is one incoming edge of node i from another remaining
	// node; walking predecessors from any remaining node must revisit a
	// node, closing a cycle.
	pred := make(map[int]drainEdge)
	for _, e := range edges {
		if remaining[e.from] && remaining[e.to] {
			if _, ok := pred[e.to]; !ok {
				pred[e.to] = e
			}
		}
	}
	start := -1
	for i := range nodes {
		if remaining[i] {
			start = i
			break
		}
	}
	seen := make(map[int]int) // node -> position in walk
	var walk []int
	at := start
	for {
		if pos, ok := seen[at]; ok {
			walk = walk[pos:]
			break
		}
		seen[at] = len(walk)
		walk = append(walk, at)
		at = pred[at].from
	}
	// walk now holds the cycle in predecessor direction; report it in
	// completion-dependency direction (from must finish before to).
	var parts []string
	var ranksInvolved []int
	for _, n := range walk {
		e := pred[n]
		parts = append(parts, fmt.Sprintf("%s cannot complete: rank %d is waiting inside %s",
			nodes[e.to].label(), e.via, nodes[e.from].label()))
		ranksInvolved = append(ranksInvolved, e.via)
	}
	sort.Ints(ranksInvolved)
	return fmt.Errorf("collective dependency cycle between ranks %v — %s — the job is deadlocked",
		ranksInvolved, strings.Join(parts, "; "))
}

// drainPlan is the state of one in-progress dependency-ordered drain.
// The graph is only checked at plan-build time — checkAcyclic proves
// it can be ordered (or yields the deadlock diagnostic); the drain then
// executes through the needed counts below, and
// collectives complete in an order consistent with the graph because
// every edge's prerequisite releases the shared rank that feeds its
// dependent.
type drainPlan struct {
	// needed counts, per rank, how many planned collectives are still
	// waiting for that rank to arrive; a rank with a positive count must
	// keep executing. Needed-ness also propagates (sticky) through
	// blocked-receive chains: a rank a needed rank is blocked on is
	// itself needed, whatever its own collective membership. It is
	// indexed by rank id.
	needed []int
	// held marks, per rank id, the ranks the plan does not need that
	// reached their next collective boundary — their safe point — and
	// wait there, with no ready event, until the checkpoint commits.
	held []bool
	// planned counts every collective the plan has covered, including
	// ones that entered while the drain ran; width is the number of
	// simultaneously in-flight collectives when the plan was built, and
	// startEvents the events dispatched by then.
	planned     int
	width       int
	startEvents uint64
}

// waitingMembers returns, for each forming collective of fs, the live
// members of its communicator that have not yet arrived, in rank order.
// It reads them in one pass over the ranks' slot tables, however many
// collectives it is asked about. This is the single definition of "whom
// a collective still waits for" — the drain graph, the plan's needed set
// and drain-time plan extensions all derive from it.
func (c *Coordinator) waitingMembers(fs ...*forming) [][]int {
	node := make([]int, len(c.comms)) // per comm id: 1 + its collective's index in fs, or 0
	for i, f := range fs {
		node[f.commID] = i + 1
	}
	waiting := make([][]int, len(fs))
	for _, r := range c.ranks {
		if r.State() == rank.Done {
			continue
		}
		in := waitingIn(r)
		for slot := 0; slot < r.CommCount(); slot++ {
			if id := r.CommID(slot); id != in && node[id] > 0 {
				waiting[node[id]-1] = append(waiting[node[id]-1], r.ID())
			}
		}
	}
	return waiting
}

// buildDrainGraph snapshots the in-flight collectives into dependency
// graph form. Nodes follow collList (instance order), so the graph —
// and everything derived from it — is deterministic.
func (c *Coordinator) buildDrainGraph() ([]drainNode, []drainEdge) {
	waiting := c.waitingMembers(c.collList...)
	nodes := make([]drainNode, 0, len(c.collList))
	byComm := make([]int, len(c.comms)) // node index of each forming comm
	for i, f := range c.collList {
		nodes = append(nodes, drainNode{
			comm:    f.commID,
			seq:     f.seq,
			kind:    f.kind,
			waiting: waiting[i],
		})
		byComm[f.commID] = i
	}
	var edges []drainEdge
	for to := range nodes {
		for _, m := range nodes[to].waiting {
			if k := waitingIn(c.ranks[m]); k >= 0 && k != nodes[to].comm {
				edges = append(edges, drainEdge{from: byComm[k], to: to, via: m})
			}
		}
	}
	return nodes, edges
}

// beginDrain is called when a checkpoint request is pending and the job
// is not at a safe point: it builds and checks the dependency graph,
// fails on a cycle (the deadlock diagnostic), and switches the
// scheduler into drain mode.
func (c *Coordinator) beginDrain() error {
	nodes, edges := c.buildDrainGraph()
	if err := checkAcyclic(nodes, edges); err != nil {
		return fmt.Errorf("coordinator: checkpoint drain cannot be ordered: %w", err)
	}
	c.plan = &drainPlan{
		needed:      make([]int, len(c.ranks)),
		held:        make([]bool, len(c.ranks)),
		planned:     len(nodes),
		width:       len(nodes),
		startEvents: c.events,
	}
	for i := range nodes {
		for _, m := range nodes[i].waiting {
			c.markNeeded(m)
		}
	}
	// Drain-start faults anchored to the upcoming checkpoint fire now:
	// the crash event lands Delay after the plan was built, killing the
	// job while the topo order is partially executed. The partial plan
	// dies with its timeline, and the restarted one re-plans from its own
	// collective state.
	seq := len(c.records) + 1
	for i, f := range c.cfg.Faults {
		if !c.faultFired[i] && f.Anchor == faultplan.AtDrainStart && f.N == seq {
			c.faultFired[i] = true
			c.pushGlobal(c.MaxClock().Add(f.Delay), indexEvent(evFail, i))
		}
	}
	return nil
}

// endDrain leaves drain mode after the checkpoint committed, releasing
// every rank held at its collective boundary (in rank order, so the
// re-seeded ready events keep deterministic FIFO order).
func (c *Coordinator) endDrain() {
	held := c.plan.held
	c.plan = nil
	for id, h := range held {
		if h {
			c.scheduleReady(c.ranks[id])
		}
	}
}

// draining reports whether a drain is in progress.
func (t *timeline) draining() bool { return t.plan != nil }

// markNeeded records that the drain cannot finish until this rank makes
// progress. On the first mark the need propagates: a held rank is
// released (it will enter — and thereby plan — its next collective),
// and a rank blocked on a receive makes its sender needed too, so a
// chain of blocked ranks can never strand a planned collective behind a
// held sender.
func (c *Coordinator) markNeeded(id int) {
	first := c.plan.needed[id] == 0
	c.plan.needed[id]++
	if !first {
		return
	}
	if c.plan.held[id] {
		c.plan.held[id] = false
		c.scheduleReady(c.ranks[id])
	}
	if peer, ok := c.ranks[id].BlockedOn(); ok && c.plan.needed[peer] == 0 {
		c.markNeeded(peer)
	}
}

// shouldHold decides whether a ready rank has reached its safe point
// for the in-progress drain: it is about to enter a collective that is
// neither forming (all forming collectives are planned while draining)
// nor needed by the plan through this rank. Held ranks consume no
// scheduler work until the checkpoint commits. Transitive point-to-
// point dependencies never reach this decision wrongly: a rank some
// needed rank is blocked on was already marked needed, either when the
// mark propagated through the blocked chain (markNeeded) or when the
// needed rank blocked during the drain (the dispatcher's
// BlockedOnRecv case).
func (c *Coordinator) shouldHold(r *rank.Rank) bool {
	slot, ok := r.AtCollective()
	if !ok {
		return false
	}
	if c.comms[r.CommID(slot)].forming != nil {
		return false
	}
	return c.plan.needed[r.ID()] == 0
}

// extendPlan admits a collective that became in-flight while the drain
// ran: a needed rank had to pass through it on the way to a planned
// one, so it too must complete before the checkpoint can land. Its
// not-yet-arrived live members become needed in turn.
func (c *Coordinator) extendPlan(f *forming) {
	c.plan.planned++
	for _, m := range c.waitingMembers(f)[0] {
		c.markNeeded(m)
	}
}
