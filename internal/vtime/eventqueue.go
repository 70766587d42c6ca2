package vtime

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
// registers. Heap shape is invisible to callers: (time, seq) is a total
// order, so any correct heap pops the same sequence.
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
	if len(h) == 0 {
		var zero T
		return 0, zero, false
	}
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = eventEntry[T]{} // release the payload for GC
	h = h[:n]
	q.heap = h
	if n > 0 {
		// Sift the hole at the root down to where last belongs.
		i := 0
		for {
			first := heapArity*i + 1
			if first >= n {
				break
			}
			best := first
			for c := first + 1; c < first+heapArity && c < n; c++ {
				if keyLess(h[c].time, h[c].seq, h[best].time, h[best].seq) {
					best = c
				}
			}
			if !keyLess(h[best].time, h[best].seq, last.time, last.seq) {
				break
			}
			h[i] = h[best]
			i = best
		}
		h[i] = last
	}
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
	return t1 < t2 || (t1 == t2 && s1 < s2)
}
