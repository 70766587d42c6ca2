// Drain planner: the topological-sort collective drain of
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
// topologically sorts it. A cycle means two ranks ordered the same pair
// of collectives differently, which is an application deadlock with or
// without a checkpoint, and is reported as such, naming the ranks and
// collectives involved.
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
	"fmt"
	"sort"
	"strings"

	"mana/internal/faultplan"
	"mana/internal/netsim"
	"mana/internal/rank"
)

// drainNode is one in-flight collective in the dependency graph: the
// rendezvous forming on communicator comm (instance seq), with the
// arrived ranks waiting inside it and the live members still expected.
type drainNode struct {
	comm    int
	seq     uint64
	kind    netsim.CollectiveKind
	arrived []int
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

// topoOrder returns node indexes in a dependency-respecting order:
// every edge's from-node appears before its to-node. The order is
// deterministic — among nodes whose dependencies are satisfied, the
// oldest collective instance (smallest seq) drains first. A cycle in
// the graph is an application deadlock; the returned error names the
// collectives and the ranks whose conflicting arrival orders close the
// cycle.
func topoOrder(nodes []drainNode, edges []drainEdge) ([]int, error) {
	indeg := make([]int, len(nodes))
	succ := make([][]int, len(nodes))
	for _, e := range edges {
		indeg[e.to]++
		succ[e.from] = append(succ[e.from], e.to)
	}
	// ready holds the drainable nodes; popping the smallest seq first
	// keeps the order deterministic and FIFO-fair across instances.
	var ready []int
	for i := range nodes {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	order := make([]int, 0, len(nodes))
	for len(ready) > 0 {
		best := 0
		for i := 1; i < len(ready); i++ {
			if nodes[ready[i]].seq < nodes[ready[best]].seq {
				best = i
			}
		}
		n := ready[best]
		ready = append(ready[:best], ready[best+1:]...)
		order = append(order, n)
		for _, s := range succ[n] {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	if len(order) == len(nodes) {
		return order, nil
	}
	return nil, cycleError(nodes, edges, indeg)
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
// The topological sort itself is consumed at plan-build time — it
// proves the graph acyclic (or yields the deadlock diagnostic); the
// drain then executes through the needed/waiting sets below, and
// collectives complete in an order consistent with the graph because
// every edge's prerequisite releases the shared rank that feeds its
// dependent.
type drainPlan struct {
	// needed counts, per rank, how many planned collectives are still
	// waiting for that rank to arrive; a rank with a positive count must
	// keep executing. Needed-ness also propagates (sticky) through
	// blocked-receive chains: a rank a needed rank is blocked on is
	// itself needed, whatever its own collective membership.
	needed map[int]int
	// planned counts every collective the plan has covered, including
	// ones that entered while the drain ran; width is the number of
	// simultaneously in-flight collectives when the plan was built.
	planned int
	width   int
}

// waitingMembers returns the live members of a forming collective's
// communicator that have not yet arrived, in member (sorted rank)
// order. This is the single definition of "whom a collective still
// waits for" — the drain graph, the plan's needed set and drain-time
// plan extensions all derive from it.
func (c *Coordinator) waitingMembers(f *forming) []int {
	arrived := make(map[int]bool, len(f.ranks))
	for _, id := range f.ranks {
		arrived[id] = true
	}
	var waiting []int
	for _, m := range c.comms[f.commID].members {
		if arrived[m] || c.ranks[m].State() == rank.Done {
			continue
		}
		waiting = append(waiting, m)
	}
	return waiting
}

// buildDrainGraph snapshots the in-flight collectives into dependency
// graph form. Nodes follow collList (instance order), so the graph —
// and everything derived from it — is deterministic.
func (c *Coordinator) buildDrainGraph() ([]drainNode, []drainEdge) {
	nodes := make([]drainNode, 0, len(c.collList))
	byComm := make(map[int]int, len(c.collList))
	for _, f := range c.collList {
		nodes = append(nodes, drainNode{
			comm:    f.commID,
			seq:     f.seq,
			kind:    f.kind,
			arrived: append([]int(nil), f.ranks...),
			waiting: c.waitingMembers(f),
		})
		byComm[f.commID] = len(nodes) - 1
	}
	var edges []drainEdge
	for to := range nodes {
		for _, m := range nodes[to].waiting {
			if k := c.inCollComm[m]; k >= 0 && k != nodes[to].comm {
				edges = append(edges, drainEdge{from: byComm[k], to: to, via: m})
			}
		}
	}
	return nodes, edges
}

// beginDrain is called when a checkpoint request is pending and the job
// is not at a safe point: it builds and sorts the dependency graph,
// fails on a cycle (the deadlock diagnostic), and switches the
// scheduler into drain mode.
func (c *Coordinator) beginDrain() error {
	nodes, edges := c.buildDrainGraph()
	if _, err := topoOrder(nodes, edges); err != nil {
		return fmt.Errorf("coordinator: checkpoint drain cannot be ordered: %w", err)
	}
	c.plan = &drainPlan{
		needed:  make(map[int]int),
		planned: len(nodes),
		width:   len(nodes),
	}
	c.draining = true
	c.drainStartEvents = c.events
	for i := range nodes {
		f := c.colls[nodes[i].comm]
		f.planned = true
		f.waiting = make(map[int]bool, len(nodes[i].waiting))
		for _, m := range nodes[i].waiting {
			f.waiting[m] = true
		}
	}
	for i := range nodes {
		for _, m := range nodes[i].waiting {
			c.markNeeded(m)
		}
	}
	// Drain-start faults anchored to the upcoming checkpoint fire now:
	// the crash event lands Delay after the plan was built, killing the
	// job while the topo order is partially executed. Restart discards
	// the partial plan (abandonDrain) and the replayed timeline re-plans
	// from its own collective state. The event lives on the global lane,
	// so parallel windows never run past it.
	seq := len(c.records) + 1
	for i, f := range c.faults {
		if !c.faultFired[i] && f.Anchor == faultplan.AtDrainStart && f.N == seq {
			c.faultFired[i] = true
			c.queues.Push(c.globalLane(), c.maxClock.Add(f.Delay), indexEvent(evFail, i))
		}
	}
	return nil
}

// endDrain leaves drain mode after the checkpoint committed, releasing
// every rank held at its collective boundary (in rank order, so the
// re-seeded ready events keep deterministic FIFO order).
func (c *Coordinator) endDrain() {
	c.draining = false
	c.plan = nil
	for id := 0; id < c.cfg.Ranks; id++ {
		if c.held[id] {
			delete(c.held, id)
			c.scheduleReady(c.ranks[id])
		}
	}
}

// abandonDrain discards drain state without rescheduling anything; the
// caller (Restart) re-seeds the event queue wholesale.
func (c *Coordinator) abandonDrain() {
	c.draining = false
	c.plan = nil
	for id := range c.held {
		delete(c.held, id)
	}
}

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
	if c.held[id] {
		delete(c.held, id)
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
	if f := c.colls[r.CommID(slot)]; f != nil && f.planned {
		return false
	}
	return c.plan.needed[r.ID()] == 0
}

// extendPlan admits a collective that became in-flight while the drain
// ran: a needed rank had to pass through it on the way to a planned
// one, so it too must complete before the checkpoint can land. Its
// not-yet-arrived live members become needed in turn.
func (c *Coordinator) extendPlan(f *forming) {
	f.planned = true
	c.plan.planned++
	waiting := c.waitingMembers(f)
	f.waiting = make(map[int]bool, len(waiting))
	for _, m := range waiting {
		f.waiting[m] = true
		c.markNeeded(m)
	}
}
