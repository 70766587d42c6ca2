package coordinator

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"mana/internal/rank"
	"mana/internal/vtime"
)

// This file is the conservative parallel window executor. A window
// lets every island's worker drain its own event lane concurrently up
// to an exclusive horizon
//
//	horizon = min(T_min + lookahead, G)
//
// where T_min is the earliest island-lane event and G the earliest
// global-lane event. The two bounds carry the two correctness
// arguments:
//
//   - Lookahead: an event executed at time t >= T_min can only affect
//     another island through a cross-island message, which arrives no
//     earlier than t + lookahead >= horizon (netsim guarantees every
//     cross-island hop costs at least CrossLookahead, and the partition
//     never splits a topology group). Receives are arrival-gated —
//     netsim.Recv only yields a message once the receiver's virtual
//     time reaches its arrival — so a message enqueued mid-window by
//     another worker is indistinguishable from one enqueued at the
//     barrier: no worker ever observes an effect another worker is
//     still producing. Cross-island sends are buffered and merged at
//     the barrier, all at times >= horizon.
//
//   - Global bound: collective completions, triggers and the failure
//     event mutate cross-island state, so they execute only at serial
//     points. The horizon never passes the global lane's head, so a
//     window processes exactly the island events a serial run would
//     have processed before that global event.
//
// Within a window each lane pops in its own (time, seq) order — the
// serial order restricted to that lane. Events from different lanes at
// equal times may interleave differently than serially, but every
// cross-lane-visible effect a window can produce is commutative at
// equal times (per-pair FIFO message queues, sum/max counters,
// set-defined collective rendezvous), which is what keeps reports
// byte-identical to the serial scheduler for any worker count.
type laneBuf struct {
	// deliveries buffers the delivery events of cross-island messages
	// sent from this island, in emission order; the barrier pushes each
	// onto its destination lane.
	deliveries []pendingDelivery
	// arrivals buffers this island's collective arrivals; the barrier
	// replays them through joinCollective in global time order.
	arrivals []pendingArrival
	// dones counts ranks whose scripts ended during the window.
	dones int
	// events/visits/maxClock accumulate this lane's share of the
	// scheduler counters, folded into the coordinator at the barrier.
	events   uint64
	visits   uint64
	maxClock vtime.Time
}

// pendingDelivery is one buffered cross-island delivery: the message's
// arrival time and its delivery event, all the barrier needs of it.
type pendingDelivery struct {
	at vtime.Time
	ev event
}

// pendingArrival is one buffered collective arrival: the event time it
// happened at (for the deterministic barrier replay order) and the
// transition the rank produced.
type pendingArrival struct {
	at     vtime.Time
	rankID int
	tr     rank.Transition
}

// parallelEligible reports whether the job is in a phase where a
// parallel window preserves serial semantics: parallelism configured,
// and no scheduler state that demands per-event serial attention — a
// pending or draining checkpoint (drain planning holds ranks one event
// at a time), an armed condition trigger (its condition must be
// re-checked after every single event), or an unfired trigger (which
// will arm one). Checkpoint-heavy phases therefore run serially and
// only the post-checkpoint tail parallelises; the window machinery
// targets the long trigger-free stretches that dominate large runs.
func (c *Coordinator) parallelEligible() bool {
	return c.workers > 1 && c.islands > 1 && c.lookahead > 0 &&
		len(c.pending) == 0 && !c.draining && len(c.armed) == 0 && c.unfired == 0
}

// runWindow executes one conservative window. It returns false without
// processing anything when no island event precedes the horizon (the
// next event is on the global lane — the caller pops it serially), and
// the barrier's error when the ranks' programs disagree.
func (c *Coordinator) runWindow() (bool, error) {
	var tmin vtime.Time
	have := false
	for i := 0; i < c.islands; i++ {
		if t, ok := c.queues.Lane(i).PeekTime(); ok && (!have || t < tmin) {
			tmin, have = t, true
		}
	}
	if !have {
		return false, nil
	}
	horizon := tmin.Add(c.lookahead)
	if g, ok := c.queues.Lane(c.globalLane()).PeekTime(); ok && g < horizon {
		horizon = g
	}
	if horizon <= tmin {
		return false, nil
	}

	c.queues.BeginWindow()
	c.inWindow = true
	var wg sync.WaitGroup
	for w := 1; w < c.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for lane := w; lane < c.islands; lane += c.workers {
				c.drainLane(lane, horizon)
			}
		}(w)
	}
	for lane := 0; lane < c.islands; lane += c.workers {
		c.drainLane(lane, horizon)
	}
	wg.Wait()
	c.inWindow = false
	c.queues.EndWindow()
	return true, c.mergeWindow()
}

// drainLane pops and dispatches one island lane's events strictly below
// the horizon. It runs on the worker goroutine owning the lane; all
// state it touches is the lane's own (its ranks, its laneBuf, its heap)
// or internally synchronised (the network).
func (c *Coordinator) drainLane(lane int, horizon vtime.Time) {
	q := c.queues.Lane(lane)
	buf := &c.lanebufs[lane]
	for {
		t, ok := q.PeekTime()
		if !ok || t >= horizon {
			return
		}
		t, ev, _ := q.Pop()
		buf.events++
		c.dispatchWindow(lane, buf, t, ev)
	}
}

// dispatchWindow executes one island event inside a window. Only ready
// and delivery events live on island lanes; their cross-island effects
// (collective arrivals, done accounting, cross-island sends via
// ScheduleDelivery) are buffered on the laneBuf for the barrier.
func (c *Coordinator) dispatchWindow(lane int, buf *laneBuf, t vtime.Time, ev event) {
	switch ev.kind() {
	case evRankReady:
		r := c.ranks[ev.arg]
		if r.State() != rank.Running {
			return // stale: the timeline this event belonged to is gone
		}
		buf.visits++
		tr := r.Execute(c.net)
		switch tr.Kind {
		case rank.Advanced:
			c.noteProgressWindow(lane, buf, r)
		case rank.BlockedOnRecv:
			// Zero work until a delivery wakes it. No drain is ever in
			// progress inside a window, so no hold/starvation logic.
		case rank.JoinedCollective:
			if now := r.Clock().Now(); now > buf.maxClock {
				buf.maxClock = now
			}
			buf.arrivals = append(buf.arrivals, pendingArrival{at: t, rankID: r.ID(), tr: tr})
		}
	case evDelivery:
		r := c.ranks[ev.arg]
		if peer, ok := r.BlockedOn(); ok && peer == ev.rank() {
			buf.visits++
			if r.Wake(c.net, t) {
				c.noteProgressWindow(lane, buf, r)
			}
		}
	default:
		panic(fmt.Sprintf("coordinator: event kind %d on island lane %d", ev.kind(), lane))
	}
}

// noteProgressWindow is afterRankProgress inside a window: clock
// high-water and done accounting go to the laneBuf, and the next ready
// event is pushed onto the rank's own lane from its window seq block.
func (c *Coordinator) noteProgressWindow(lane int, buf *laneBuf, r *rank.Rank) {
	if now := r.Clock().Now(); now > buf.maxClock {
		buf.maxClock = now
	}
	if r.State() == rank.Done {
		buf.dones++
		return
	}
	if t, ok := r.NextReady(); ok {
		c.queues.WorkerPush(lane, t, indexEvent(evRankReady, r.ID()))
	}
}

// mergeWindow is the barrier: it folds every lane's buffered effects
// back into coordinator state in a deterministic order — counters and
// done counts first (sums and maxes, order-free), then cross-island
// deliveries lane by lane in emission order, then collective arrivals
// replayed through joinCollective in (time, island) order, then one
// participation-bar re-check over the forming collectives (a rank that
// finished its script during the window lowers its communicators'
// bars, exactly what noteDone does serially). Every order used here
// depends only on the partition and the event times, never on worker
// count or goroutine timing. An arrival the rendezvous refuses ends the
// merge with joinCollective's error: the run is over.
func (c *Coordinator) mergeWindow() error {
	arrivals := 0
	for lane := range c.lanebufs {
		buf := &c.lanebufs[lane]
		c.events += buf.events
		c.rankVisits += buf.visits
		c.noteClock(buf.maxClock)
		c.doneCount += buf.dones
		arrivals += len(buf.arrivals)
		buf.events, buf.visits, buf.maxClock, buf.dones = 0, 0, 0, 0
	}
	for lane := range c.lanebufs {
		buf := &c.lanebufs[lane]
		for _, d := range buf.deliveries {
			c.queues.Push(c.islandOf[d.ev.arg], d.at, d.ev)
		}
		buf.deliveries = buf.deliveries[:0]
	}
	if arrivals > 0 {
		merged := c.merged[:0]
		for lane := range c.lanebufs {
			buf := &c.lanebufs[lane]
			merged = append(merged, buf.arrivals...)
			buf.arrivals = buf.arrivals[:0]
		}
		// Stable sort: equal times keep lane order (lanes were appended
		// ascending), and within a lane the buffered order is already
		// the lane's execution order.
		slices.SortStableFunc(merged, func(a, b pendingArrival) int { return cmp.Compare(a.at, b.at) })
		c.merged = merged
		for i := range merged {
			if err := c.joinCollective(c.ranks[merged[i].rankID], &merged[i].tr); err != nil {
				return err
			}
		}
	}
	for _, f := range c.collList {
		c.maybeScheduleCollectiveDone(f)
	}
	return nil
}
