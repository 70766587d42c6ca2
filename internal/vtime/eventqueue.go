package vtime

import "math/bits"

// EventQueue is a deterministic priority queue of scheduler events keyed
// on virtual time. It is the core data structure of the event-driven
// scheduler: instead of scanning every rank on every iteration, the
// coordinator pushes one event per state transition (rank ready, message
// delivery, collective completion, checkpoint trigger, failure) and pops
// them in virtual-time order, so idle ranks cost nothing.
//
// Ties are broken FIFO on a monotonically increasing sequence number
// assigned at Push, which makes the dispatch order a deterministic
// function of the push order alone: two events at the same virtual time
// pop in the order they were scheduled, never in map-iteration or heap
// -internal order. This is what keeps reports byte-identical across runs
// of the same seed.
//
// The heap is 4-ary: half the depth of a binary heap, and the four
// children of a node sit in adjacent entries, so a sift touches fewer
// cache lines. Sifts move a hole instead of swapping — one entry copy
// per level — and compare against the moving entry's key held in
// registers. Choosing the least of four children is where a comparison
// heap loses its time: on a random key the winner is unpredictable, so
// every level costs branch mispredictions, not cache misses. Pop
// therefore picks it without branching: (time, seq) compares as one
// 128-bit unsigned key (time with its sign bit flipped, so negative times
// order below positive ones) through a borrow chain, and a two-round
// tournament selects the winner's index with masks. Heap shape is
// invisible to callers: (time, seq) is a total order, so any correct
// heap pops the same sequence.
//
// An entry is the key plus the payload. The scheduler's payload is eight
// bytes with no pointer, so its entries are 24 bytes, sifts copy them
// without write barriers, and the collector never scans the heap.
//
// The queue is not safe for concurrent use; a deterministic scheduler
// drives each queue from a single goroutine at a time. In the island
// scheduler one EventQueue is one island's lane inside an IslandQueues
// merge layer (see islands.go), which assigns sequence numbers from a
// shared counter so the lanes still form one global (time, seq) total
// order.
type EventQueue[T any] struct {
	heap []eventEntry[T]
	seq  uint64
}

type eventEntry[T any] struct {
	time Time
	seq  uint64
	val  T
}

// NewEventQueue returns an empty queue.
func NewEventQueue[T any]() *EventQueue[T] {
	return &EventQueue[T]{}
}

// NewEventQueueSized returns an empty queue whose heap storage is
// preallocated for the given number of events, so a scheduler that knows
// its steady-state population (one ready event per rank, say) never pays
// growth reallocations on the hot path.
func NewEventQueueSized[T any](hint int) *EventQueue[T] {
	if hint < 0 {
		hint = 0
	}
	return &EventQueue[T]{heap: make([]eventEntry[T], 0, hint)}
}

// Len returns the number of scheduled events.
func (q *EventQueue[T]) Len() int { return len(q.heap) }

// Cap returns the heap storage capacity, for tests that pin capacity
// reuse across Clear.
func (q *EventQueue[T]) Cap() int { return cap(q.heap) }

// Push schedules v at virtual time t.
func (q *EventQueue[T]) Push(t Time, v T) {
	q.seq++
	q.PushAt(t, q.seq, v)
}

// PushAt schedules v at virtual time t with a caller-assigned sequence
// number. It is the primitive the IslandQueues merge layer builds on: the
// caller owns the seq space and guarantees (time, seq) uniqueness and
// that seq reflects the intended FIFO order at equal times. Mixing PushAt
// with Push on the same queue is only meaningful if the caller's seqs are
// coordinated with the internal counter.
func (q *EventQueue[T]) PushAt(t Time, seq uint64, v T) {
	q.heap = append(q.heap, eventEntry[T]{})
	h := q.heap
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / heapArity
		if !keyLess(t, seq, h[parent].time, h[parent].seq) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = eventEntry[T]{time: t, seq: seq, val: v}
}

// Pop removes and returns the earliest event; ties pop in Push order.
// The third result is false when the queue is empty.
func (q *EventQueue[T]) Pop() (Time, T, bool) {
	h := q.heap
	n := len(h) - 1
	if n < 0 {
		var zero T
		return 0, zero, false
	}
	top := h[0]
	last := h[n]
	h[n] = eventEntry[T]{} // release the payload for GC
	h = h[:n]
	q.heap = h
	if n == 0 {
		return top.time, top.val, true
	}
	// Sift the hole at the root down to where last belongs. Every node
	// above the bottom family has four children: pick the least of them
	// without a branch.
	lt, ls := orderKey(last.time), last.seq
	i := 0
	for {
		first := heapArity*i + 1
		if first+heapArity > n {
			break
		}
		c := h[first : first+heapArity : first+heapArity]
		t0, s0 := orderKey(c[0].time), c[0].seq
		t1, s1 := orderKey(c[1].time), c[1].seq
		t2, s2 := orderKey(c[2].time), c[2].seq
		t3, s3 := orderKey(c[3].time), c[3].seq
		// Round one: the lesser of children 0/1 and of children 2/3,
		// each kept as (index, key) by masked select.
		m := -less128(t1, s1, t0, s0)
		a, at, as := m&1, t0^((t0^t1)&m), s0^((s0^s1)&m)
		m = -less128(t3, s3, t2, s2)
		b, bt, bs := 2+m&1, t2^((t2^t3)&m), s2^((s2^s3)&m)
		// Round two: the lesser of the two winners.
		m = -less128(bt, bs, at, as)
		best, bestT, bestS := a^((a^b)&m), at^((at^bt)&m), as^((as^bs)&m)
		if less128(bestT, bestS, lt, ls) == 0 {
			h[i] = last
			return top.time, top.val, true
		}
		h[i] = c[best]
		i = first + int(best)
	}
	// The bottom family may have fewer than four children.
	if first := heapArity*i + 1; first < n {
		best := first
		for c := first + 1; c < n; c++ {
			if keyLess(h[c].time, h[c].seq, h[best].time, h[best].seq) {
				best = c
			}
		}
		if keyLess(h[best].time, h[best].seq, last.time, last.seq) {
			h[i] = h[best]
			i = best
		}
	}
	h[i] = last
	return top.time, top.val, true
}

// PeekTime returns the virtual time of the earliest event without
// removing it; false when the queue is empty.
func (q *EventQueue[T]) PeekTime() (Time, bool) {
	if len(q.heap) == 0 {
		return 0, false
	}
	return q.heap[0].time, true
}

// PeekKey returns the (time, seq) ordering key of the earliest event
// without removing it; false when the queue is empty. The merge layer
// compares lane heads by this key to pop the globally earliest event.
func (q *EventQueue[T]) PeekKey() (Time, uint64, bool) {
	if len(q.heap) == 0 {
		return 0, 0, false
	}
	return q.heap[0].time, q.heap[0].seq, true
}

// Clear discards every scheduled event but keeps the heap storage, so a
// restart that rebuilds the queue reuses the already-grown capacity
// instead of reallocating from zero. The sequence counter is NOT reset:
// events pushed after a Clear still order after everything pushed before
// it, so the rebuilt queue keeps a globally consistent tie-break order.
func (q *EventQueue[T]) Clear() {
	clear(q.heap) // release the payloads for GC, matching Pop
	q.heap = q.heap[:0]
}

// heapArity is the heap's branching factor.
const heapArity = 4

// keyLess is the queue's total order: earlier time first, FIFO seq at
// equal times.
func keyLess(t1 Time, s1 uint64, t2 Time, s2 uint64) bool {
	return less128(orderKey(t1), s1, orderKey(t2), s2) != 0
}

// orderKey maps a time onto an unsigned key with the same order: flipping
// the sign bit puts MinInt64 at 0 and MaxInt64 at the top.
func orderKey(t Time) uint64 { return uint64(t) ^ 1<<63 }

// less128 is 1 when the 128-bit key hi1:lo1 is below hi2:lo2 and 0
// otherwise: the borrow out of the two-word subtraction, with no branch.
func less128(hi1, lo1, hi2, lo2 uint64) uint64 {
	_, borrow := bits.Sub64(lo1, lo2, 0)
	_, borrow = bits.Sub64(hi1, hi2, borrow)
	return borrow
}
