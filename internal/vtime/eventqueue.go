package vtime

import "math/bits"

// EventQueue is a deterministic priority queue of scheduler events keyed
// on virtual time. It is the core data structure of the event-driven
// scheduler: instead of scanning every rank on every iteration, the
// coordinator pushes one event per state transition (rank ready, message
// delivery, collective completion, checkpoint trigger, failure) and pops
// them in virtual-time order, so idle ranks cost nothing.
//
// Ties are broken by push order alone: two events at the same virtual
// time pop in the order they were pushed, never in map-iteration or
// queue-internal order, so the dispatch order is a deterministic function
// of the push order. This is what keeps reports byte-identical across
// runs of the same seed.
//
// The queue is a radix queue (a monotone bucket queue) keyed on time.
// Times compare as unsigned order keys (the sign bit flipped, so negative
// times order below positive ones), and the queue remembers last, the key
// of the latest minimum. Bucket i holds the events whose key first
// differs from last at bit i; the events at exactly last wait in a FIFO
// in push order. Pop takes the FIFO's head, or else empties the lowest
// non-empty bucket: that bucket's least key (kept up to date on every
// append) becomes last, and every event of the bucket moves into a lower
// bucket or the FIFO. An event only ever moves down, so it moves at most
// 64 times and in practice a handful (3.7 to 6.2 moves per event on the
// benchmark workloads' recorded streams), with no comparison tournament
// per level as in a heap. Buckets and the FIFO keep push order among
// equal times without storing it: appends go to the end of a chain, and
// a move reads a chain front to back. So the pop sequence is exactly the
// (time, push order) one any stable priority queue gives.
//
// A push below last (the drain's release step re-seeds held ranks at
// their own earlier ready times) waits on a late list, and the next Pop
// or Peek rebases once for the whole burst: last drops to the least late
// key, and only the late list, the FIFO and the buckets below the
// highest bit where the old and the new last differ are re-filed.
//
// Storage is one arena of 32-event chunks. Each bucket, the FIFO and the
// late list is a chain of chunks. A chunk that a move or a pop has read
// returns to a shared free list, except a chain's last chunk, which the
// chain keeps for its next events. Every chain therefore holds at most
// one chunk that is not full (a rebase briefly holds two per chain), so
// with n events queued at most n/32 + 134 chunks are in use, and the
// arena only doubles when no chunk is free. Retained storage is
// therefore bounded by the peak population: Cap never exceeds twice the
// peak plus storageSlack (8,576 events, 134 KiB of 16-byte entries), or
// what NewEventQueueSized preallocated if that is larger: the size hint
// plus one chunk per chain. Once the arena has grown, Push and Pop
// allocate nothing, and Clear keeps the arena.
//
// An entry is the key plus the payload. The scheduler's payload is eight
// bytes with no pointer, so its entries are 16 bytes, moves copy them
// without write barriers, and the collector never scans the arena.
//
// The queue is not safe for concurrent use; a deterministic scheduler
// drives each queue from a single goroutine at a time.
type EventQueue[T any] struct {
	arena []eventEntry[T] // chunk c is arena[c*chunkLen : (c+1)*chunkLen]
	next  []int32         // next[c]: the chunk after c in its chain or in the free list
	free  int32           // first free chunk; -1 when none is
	ch    [chains]chain
	// inv[b] is the complement of the least key on bucket b (0 when it
	// is empty), kept on every append, so emptying a bucket needs no
	// search for its minimum.
	inv  [chains]uint64
	mask uint64 // bit b set when bucket b holds events
	// fifoLive and lateLive report whether the FIFO and the late list
	// hold events.
	fifoLive, lateLive bool
	last               uint64 // order key of the latest minimum
	lateMin            uint64 // least key on the late list
	n                  int
	rebases            int // rebases so far, for tests
}

// chain is one bucket, the FIFO or the late list: the arena index of its
// first entry, one past its last, and the end of its tail chunk, all 0
// when it owns no chunk. An emptied chain keeps its tail chunk (hd == tl
// inside it), so a bucket that fills and empties over and over does not
// go back to the free list for a chunk each time.
type chain struct{ hd, tl, lim int32 }

type eventEntry[T any] struct {
	key uint64 // orderKey of the event's time
	val T
}

const (
	chunkShift = 5
	chunkLen   = 1 << chunkShift // entries per chunk
	fifo       = 64              // chain of the events at last
	lateList   = 65              // chain of the events pushed below last
	chains     = 66              // 64 buckets, the FIFO and the late list
	signBit    = 1 << 63
	// storageSlack bounds the arena beyond twice the peak population;
	// see the EventQueue doc.
	storageSlack = 2 * (2*chains + 2) * chunkLen
)

// NewEventQueue returns an empty queue.
func NewEventQueue[T any]() *EventQueue[T] {
	return &EventQueue[T]{free: -1}
}

// NewEventQueueSized returns an empty queue whose arena is preallocated
// for the given number of events, rounded up to whole chunks, plus one
// chunk per chain (2,112 events, 33 KiB) for the tail chunk each chain
// keeps part full. A scheduler that knows its steady-state population
// (one ready event per rank, say) then pays no growth reallocation on
// the hot path while the population stays within the hint; sized for the
// events alone, the arena would double in the first few pops.
func NewEventQueueSized[T any](hint int) *EventQueue[T] {
	q := NewEventQueue[T]()
	if hint > 0 {
		q.resize((hint+chunkLen-1)>>chunkShift + chains)
	}
	return q
}

// Len returns the number of scheduled events.
func (q *EventQueue[T]) Len() int { return q.n }

// Cap returns the arena's capacity in events, for tests that pin
// capacity reuse across Clear and the storage bound.
func (q *EventQueue[T]) Cap() int { return len(q.arena) }

// Push schedules v at virtual time t, after every event already queued
// at t.
func (q *EventQueue[T]) Push(t Time, v T) {
	k := orderKey(t)
	q.n++
	if k <= q.last {
		q.pushAtOrBelowLast(eventEntry[T]{key: k, val: v})
		return
	}
	b := bits.Len64(k^q.last) - 1
	q.mask |= 1 << b
	q.inv[b] = max(q.inv[b], ^k)
	c := &q.ch[b]
	w := c.tl
	if w == c.lim {
		w = q.link(b)
	}
	q.arena[w] = eventEntry[T]{key: k, val: v}
	c.tl = w + 1
}

// pushAtOrBelowLast files e at last into the FIFO, or below it onto the
// late list.
func (q *EventQueue[T]) pushAtOrBelowLast(e eventEntry[T]) {
	if e.key == q.last {
		q.append(fifo, e)
		q.fifoLive = true
		return
	}
	if !q.lateLive || e.key < q.lateMin {
		q.lateMin = e.key
	}
	q.append(lateList, e)
	q.lateLive = true
}

// append adds e at the end of chain b.
func (q *EventQueue[T]) append(b int, e eventEntry[T]) {
	c := &q.ch[b]
	w := c.tl
	if w == c.lim {
		w = q.link(b)
	}
	q.arena[w] = e
	c.tl = w + 1
}

// Pop removes and returns the earliest event; ties pop in Push order.
// The third result is false when the queue is empty.
func (q *EventQueue[T]) Pop() (Time, T, bool) {
	if (!q.fifoLive || q.lateLive) && !q.settle() {
		var zero T
		return 0, zero, false
	}
	c := &q.ch[fifo]
	p := c.hd
	e := q.arena[p]
	q.n--
	p++
	if p == c.tl { // that was the last: keep the chunk, empty
		p = (p - 1) &^ (chunkLen - 1)
		c.tl = p
		q.fifoLive = false
	} else if p&(chunkLen-1) == 0 { // on to the FIFO's next chunk
		k := p>>chunkShift - 1
		p = q.next[k] << chunkShift
		q.release(k)
	}
	c.hd = p
	return Time(e.key ^ signBit), e.val, true
}

// Clear discards every scheduled event but keeps the arena, so a restart
// that rebuilds the queue reuses the already-grown capacity instead of
// reallocating from zero.
func (q *EventQueue[T]) Clear() {
	clear(q.arena) // release the payloads for GC
	q.free = -1
	for c := len(q.next) - 1; c >= 0; c-- {
		q.release(int32(c))
	}
	q.ch = [chains]chain{}
	q.inv = [chains]uint64{}
	q.mask = 0
	q.fifoLive, q.lateLive = false, false
	q.last = 0
	q.n = 0
}

// settle makes the FIFO hold the earliest events: it first files a burst
// of late pushes, then, if the FIFO is still empty, empties the lowest
// non-empty bucket, which keeps its tail chunk. It reports false when the
// queue is empty.
func (q *EventQueue[T]) settle() bool {
	if q.lateLive {
		q.rebase()
		if q.fifoLive {
			return true
		}
	}
	if q.mask == 0 {
		return false
	}
	i := bits.TrailingZeros64(q.mask)
	q.mask &^= 1 << i
	src := q.ch[i]
	home := src.lim - chunkLen
	q.ch[i] = chain{home, home, src.lim}
	q.last = ^q.inv[i]
	q.inv[i] = 0
	q.distribute(src.hd, src.tl, true)
	return true
}

// rebase lowers last to the least late key and re-files what that moves:
// the late list, the FIFO and every bucket below d, the bit above which
// the old and the new last agree. Buckets from d up keep their events,
// since those differ from either last first at the same bit. The
// re-filed chains give up their chunks, since each is both a source and
// a destination here.
func (q *EventQueue[T]) rebase() {
	q.rebases++
	newLast := q.lateMin
	d := bits.Len64(q.last ^ newLast)
	var srcs [chains]chain
	n := 0
	take := func(b int, live bool) {
		switch c := q.ch[b]; {
		case live:
			srcs[n] = c
			n++
		case c.lim != 0:
			q.release(c.lim>>chunkShift - 1)
		}
		q.ch[b] = chain{}
	}
	// Push order survives: only the late list holds the new last, and any
	// other key comes from one chain, which distribute reads in order.
	take(lateList, q.lateLive)
	take(fifo, q.fifoLive)
	for b := 0; b < d; b++ {
		take(b, q.mask&(1<<b) != 0)
		q.inv[b] = 0
	}
	q.mask &^= 1<<d - 1
	q.fifoLive, q.lateLive = false, false
	q.last = newLast
	for _, c := range srcs[:n] {
		q.distribute(c.hd, c.tl, false)
	}
}

// distribute moves every entry of the chain from hd to tl onto the chain
// its key selects against last, front to back, and frees each chunk it
// has read, except the tail chunk when keepTail is set. The FIFO is
// empty on entry, and so is every bucket an entry can land in.
func (q *EventQueue[T]) distribute(p, tl int32, keepTail bool) {
	m := q.last
	mask := q.mask
	hitFIFO := false
	for {
		end := (p | (chunkLen - 1)) + 1
		tail := tl > p && tl <= end
		if tail {
			end = tl
		}
		for _, e := range q.arena[p:end] {
			b := bits.Len64(e.key^m) - 1
			if b < 0 {
				b = fifo
				hitFIFO = true
			} else {
				mask |= 1 << b
			}
			q.inv[b] = max(q.inv[b], ^e.key)
			c := &q.ch[b]
			w := c.tl
			if w == c.lim {
				w = q.link(b)
			}
			q.arena[w] = e
			c.tl = w + 1
		}
		k := (end - 1) >> chunkShift
		if tail {
			if !keepTail {
				q.release(k)
			}
			break
		}
		p = q.next[k] << chunkShift
		q.release(k)
	}
	q.mask = mask
	if hitFIFO {
		q.fifoLive = true
	}
}

// link gives chain b a new tail chunk and returns its first index.
func (q *EventQueue[T]) link(b int) int32 {
	if q.free < 0 {
		q.resize(max(2*len(q.next), 1))
	}
	k := q.free
	q.free = q.next[k]
	c := &q.ch[b]
	if c.lim == 0 {
		c.hd = k << chunkShift
	} else {
		q.next[c.lim>>chunkShift-1] = k
	}
	c.lim = (k + 1) << chunkShift
	return k << chunkShift
}

// release returns chunk k to the free list.
func (q *EventQueue[T]) release(k int32) {
	q.next[k] = q.free
	q.free = k
}

// resize grows the arena to n chunks and frees the new ones. Indices
// stay valid, so no chain notices.
func (q *EventQueue[T]) resize(n int) {
	old := len(q.next)
	arena := make([]eventEntry[T], n<<chunkShift)
	copy(arena, q.arena)
	next := make([]int32, n)
	copy(next, q.next)
	q.arena, q.next = arena, next
	for k := n - 1; k >= old; k-- {
		q.release(int32(k))
	}
}

// orderKey maps a time onto an unsigned key with the same order: flipping
// the sign bit puts MinInt64 at 0 and MaxInt64 at the top.
func orderKey(t Time) uint64 { return uint64(t) ^ signBit }
