package vtime

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// This file checks the radix queue against a reference that has no
// buckets in it: a plain slice of (time, seq, value) entries, kept here
// and used nowhere else, which numbers its pushes itself and whose pop
// sorts and takes the front. The queue's contract is that it pops
// exactly the (time, push order) total order, so any random interleaving
// of pushes, pops and clears must read the same from both.

// PeekTime returns the virtual time of the earliest event without
// removing it; false when the queue is empty. It may settle the queue
// (move events between buckets), which Pop would do anyway. No run
// peeks (the coordinator only pops), so the queue's peek lives with its
// tests.
func (q *EventQueue[T]) PeekTime() (Time, bool) {
	if (!q.fifoLive || q.lateLive) && !q.settle() {
		return 0, false
	}
	return Time(q.arena[q.ch[fifo].hd].key ^ signBit), true
}

type refEntry struct {
	time Time
	seq  uint64 // the reference's own push counter
	val  int
}

type refQueue struct {
	entries []refEntry
	seq     uint64
}

func (r *refQueue) push(t Time, v int) {
	r.seq++
	r.entries = append(r.entries, refEntry{t, r.seq, v})
}

func (r *refQueue) pop() (refEntry, bool) {
	e, ok := r.head()
	if ok {
		r.entries = r.entries[1:]
	}
	return e, ok
}

// head returns the earliest entry without removing it.
func (r *refQueue) head() (refEntry, bool) {
	if len(r.entries) == 0 {
		return refEntry{}, false
	}
	sort.Slice(r.entries, func(i, j int) bool {
		a, b := r.entries[i], r.entries[j]
		if a.time != b.time {
			return a.time < b.time
		}
		return a.seq < b.seq
	})
	return r.entries[0], true
}

// TestEventQueueVsSortedReference drives one EventQueue and the sorted
// reference with the same random stream of pushes, pops and fresh
// queues. Times are drawn from one fixed range, so once pops have passed
// some of it, pushes land below the last popped time too, as the drain's
// release step does, and the queue rebases.
func TestEventQueueVsSortedReference(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		q := NewEventQueue[int]()
		ref := &refQueue{}
		// Heavy ties, some ties, none.
		timeRange := []int{4, 64, 1 << 20}[trial%3]
		id := 0
		for step := 0; step < 600; step++ {
			switch op := rng.Intn(20); {
			case op < 9:
				tm := Time(rng.Intn(timeRange))
				q.Push(tm, id)
				ref.push(tm, id)
				id++
			case op < 18:
				want, wantOK := ref.pop()
				if pt, ok := q.PeekTime(); ok != wantOK || pt != want.time {
					t.Fatalf("trial %d step %d: PeekTime = (%v, %v), reference head (%v, %v)",
						trial, step, pt, ok, want.time, wantOK)
				}
				gt, gv, ok := q.Pop()
				if ok != wantOK || gt != want.time || gv != want.val {
					t.Fatalf("trial %d step %d: Pop = (%v, %d, %v), reference (%v, %d, %v)",
						trial, step, gt, gv, ok, want.time, want.val, wantOK)
				}
			case op == 18: // a restart builds a fresh queue
				q = NewEventQueue[int]()
				ref.entries = ref.entries[:0]
			}
			if q.Len() != len(ref.entries) {
				t.Fatalf("trial %d step %d: Len = %d, reference holds %d", trial, step, q.Len(), len(ref.entries))
			}
		}
		for len(ref.entries) > 0 {
			want, _ := ref.pop()
			if gt, gv, ok := q.Pop(); !ok || gt != want.time || gv != want.val {
				t.Fatalf("trial %d drain: Pop = (%v, %d, %v), reference (%v, %d)", trial, gt, gv, ok, want.time, want.val)
			}
		}
	}
}

// FuzzQueueVsSort lets arbitrary bytes drive Push, Pop, PeekTime and a
// fresh queue against the sorted reference. Each push takes its time
// from one of five shapes: a full 64-bit value (negative times and both
// extremes included, which the sign flip of the order key must order
// correctly), one of a handful of boundary values, a small range dense with equal
// times, a repeat of the previous time, or a time below the last popped
// one — what the drain's release step does when it re-seeds held ranks
// at their own clocks, and what makes the queue rebase.
// testdata/fuzz/FuzzQueueVsSort holds a stream shaped like the
// scheduler's: pushes at or after the last pop, same-instant bursts,
// then one late burst.
func FuzzQueueVsSort(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 3, 4, 0, 5, 6, 7})
	f.Add([]byte{0, 0x80, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 0, 2, 3, 0, 4, 4})
	f.Add([]byte{5, 3, 0, 1, 7, 1, 3, 2, 9, 0, 2, 0, 3, 3, 6, 8, 8, 8})
	f.Add([]byte{0, 4, 9, 0, 4, 2, 6, 0, 3, 200, 0, 1, 2, 0, 3, 5, 8, 8, 8, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		boundary := []Time{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
		q := NewEventQueue[int]()
		ref := &refQueue{}
		var prev, popped Time
		id := 0
		pushTime := func() Time {
			switch next() % 5 {
			case 0:
				var b [8]byte
				for i := range b {
					b[i] = next()
				}
				prev = Time(binary.LittleEndian.Uint64(b[:]))
			case 1:
				prev = boundary[int(next())%len(boundary)]
			case 2:
				prev = Time(next() % 8)
			case 3: // the previous time again
			case 4:
				if d := Time(next()) + 1; popped >= math.MinInt64+d {
					prev = popped - d
				} else {
					prev = math.MinInt64
				}
			}
			return prev
		}
		for step := 0; len(data) > 0; step++ {
			switch op := next() % 8; {
			case op < 3:
				tm := pushTime()
				q.Push(tm, id)
				ref.push(tm, id)
				id++
			case op < 7:
				want, wantOK := ref.head()
				if pt, ok := q.PeekTime(); ok != wantOK || pt != want.time {
					t.Fatalf("step %d: PeekTime = (%d, %v), reference head (%d, %v)",
						step, pt, ok, want.time, wantOK)
				}
				ref.pop()
				gt, gv, ok := q.Pop()
				if ok != wantOK || gt != want.time || gv != want.val {
					t.Fatalf("step %d: Pop = (%d, %d, %v), reference (%d, %d, %v)",
						step, gt, gv, ok, want.time, want.val, wantOK)
				}
				if ok {
					popped = gt
				}
			default: // a restart builds a fresh queue
				q = NewEventQueue[int]()
				ref.entries = ref.entries[:0]
			}
			if q.Len() != len(ref.entries) {
				t.Fatalf("step %d: Len = %d, reference holds %d", step, q.Len(), len(ref.entries))
			}
		}
		for len(ref.entries) > 0 {
			want, _ := ref.pop()
			if gt, gv, ok := q.Pop(); !ok || gt != want.time || gv != want.val {
				t.Fatalf("drain: Pop = (%d, %d, %v), reference (%d, %d)", gt, gv, ok, want.time, want.val)
			}
		}
		if _, _, ok := q.Pop(); ok {
			t.Fatal("drain: queue holds more events than the reference")
		}
	})
}
