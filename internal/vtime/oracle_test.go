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
// and used nowhere else, whose pop sorts and takes the front. The
// queue's contract is that it pops exactly the (time, seq) total order,
// so any random interleaving of pushes, pops and clears must read the
// same from both.

// PeekTime returns the virtual time of the earliest event without
// removing it; false when the queue is empty. No run peeks (the
// coordinator only pops), so the queue's peeks live with its tests.
func (q *EventQueue[T]) PeekTime() (Time, bool) {
	t, _, ok := q.PeekKey()
	return t, ok
}

// PeekKey returns the (time, seq) ordering key of the earliest event
// without removing it; false when the queue is empty. It may settle the
// queue (move events between buckets), which Pop would do anyway.
func (q *EventQueue[T]) PeekKey() (Time, uint64, bool) {
	if (!q.fifoLive || q.lateLive) && !q.settle() {
		return 0, 0, false
	}
	e := &q.arena[q.ch[fifo].hd]
	return Time(e.key ^ signBit), e.seq, true
}

type refEntry struct {
	time Time
	seq  uint64
	val  int
}

type refQueue struct{ entries []refEntry }

func (r *refQueue) push(t Time, seq uint64, v int) {
	r.entries = append(r.entries, refEntry{t, seq, v})
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
// reference with the same random Push/PushAt/Pop/Clear stream. Half the
// trials use Push (the queue numbers events itself); the other half use
// PushAt with caller-assigned seqs: a counter, and every so often a
// "window" in which pushes draw from per-lane blocks far above it, out
// of order across lanes, after which the counter jumps past every block.
func TestEventQueueVsSortedReference(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		q := NewEventQueue[int]()
		ref := &refQueue{}
		callerSeq := trial%2 == 1
		// seq is the caller-side counter; in Push mode it mirrors q's own.
		var seq uint64
		// Heavy ties, some ties, none.
		timeRange := []int{4, 64, 1 << 20}[trial%3]
		push := func(s uint64, id int) {
			tm := Time(rng.Intn(timeRange))
			if callerSeq {
				q.PushAt(tm, s, id)
			} else {
				q.Push(tm, id)
			}
			ref.push(tm, s, id)
		}
		id := 0
		for step := 0; step < 600; step++ {
			switch op := rng.Intn(20); {
			case op < 9:
				seq++
				push(seq, id)
				id++
			case op < 11 && callerSeq: // a window: per-lane blocks above the counter
				base := seq
				var wseq [4]uint64
				for n := rng.Intn(12); n > 0; n-- {
					lane := rng.Intn(len(wseq))
					wseq[lane]++
					push(base+uint64(lane+1)<<windowShift+wseq[lane], id)
					id++
				}
				seq = base + uint64(len(wseq)+1)<<windowShift
			case op < 18:
				want, wantOK := ref.pop()
				if pt, ps, ok := q.PeekKey(); ok != wantOK || pt != want.time || ps != want.seq {
					t.Fatalf("trial %d step %d: PeekKey = (%v, %d, %v), reference head (%v, %d, %v)",
						trial, step, pt, ps, ok, want.time, want.seq, wantOK)
				}
				gt, gv, ok := q.Pop()
				if ok != wantOK || gt != want.time || gv != want.val {
					t.Fatalf("trial %d step %d: Pop = (%v, %d, %v), reference (%v, %d, %v)",
						trial, step, gt, gv, ok, want.time, want.val, wantOK)
				}
			case op == 18:
				q.Clear()
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

// windowShift sizes the seq blocks of the tests' caller-numbered
// windows: each lane's block starts (lane+1)<<windowShift above the
// counter, so its seqs need the full 64 bits of the key's low word.
const windowShift = 32

// FuzzQueueVsSort lets arbitrary bytes drive Push, PushAt, Pop, PeekKey
// and Clear against the sorted reference. The first byte picks who
// numbers the events: the queue itself (Push), or the caller (PushAt)
// with one counter and windows that draw from per-lane blocks above it,
// out of order across lanes.
// Each push then takes its time from one of five shapes: a full 64-bit
// value (negative times and both extremes included, which the sign flip
// of the order key must order correctly), one of a handful of boundary
// values, a small range dense with equal times, a repeat of the previous
// time, or a time below the last popped one — what the drain's release
// step does when it re-seeds held ranks at their own clocks, and what
// makes the queue rebase. testdata/fuzz/FuzzQueueVsSort holds a stream
// shaped like the scheduler's: pushes at or after the last pop,
// same-instant bursts, then one late burst.
func FuzzQueueVsSort(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 0, 3, 4, 0, 5, 6, 7})
	f.Add([]byte{1, 0, 0x80, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 0, 2, 3, 0, 4, 4})
	f.Add([]byte{1, 5, 3, 0, 1, 7, 1, 3, 2, 9, 0, 2, 0, 3, 3, 6, 8, 8, 8})
	f.Add([]byte{0, 0, 4, 9, 0, 4, 2, 6, 0, 3, 200, 0, 1, 2, 0, 3, 5, 8, 8, 8, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		callerSeq := data[0]&1 == 1
		data = data[1:]
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
		var seq uint64
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
		push := func(s uint64) {
			tm := pushTime()
			if callerSeq {
				q.PushAt(tm, s, id)
			} else {
				q.Push(tm, id)
			}
			ref.push(tm, s, id)
			id++
		}
		for step := 0; len(data) > 0; step++ {
			switch op := next() % 8; {
			case op < 3:
				seq++
				push(seq)
			case op == 3 && callerSeq: // a window: per-lane blocks above the counter
				base := seq
				var wseq [4]uint64
				for n := next() % 8; n > 0; n-- {
					lane := next() % 4
					wseq[lane]++
					push(base + uint64(lane+1)<<windowShift + wseq[lane])
				}
				seq = base + uint64(len(wseq)+1)<<windowShift
			case op < 7:
				want, wantOK := ref.head()
				if pt, ps, ok := q.PeekKey(); ok != wantOK || pt != want.time || ps != want.seq {
					t.Fatalf("step %d: PeekKey = (%d, %d, %v), reference head (%d, %d, %v)",
						step, pt, ps, ok, want.time, want.seq, wantOK)
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
			default:
				q.Clear()
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
