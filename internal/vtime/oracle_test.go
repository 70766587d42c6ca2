package vtime

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// This file checks the 4-ary hole-sifting heap against a reference that
// has no heap in it: a plain slice of (time, seq, value) entries, kept
// here and used nowhere else, whose pop sorts and takes the front. The
// queue's contract is that it pops exactly the (time, seq) total order,
// so any random interleaving of pushes, pops and clears must read the
// same from both.

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
	e := r.entries[0]
	r.entries = r.entries[1:]
	return e, true
}

// TestEventQueueVsSortedReference drives one EventQueue and the sorted
// reference with the same random Push/PushAt/Pop/Clear stream. Half the
// trials use Push (the queue numbers events itself); the other half use
// PushAt with seqs shaped the way IslandQueues assigns them: a shared
// counter, and every so often a "window" in which pushes draw from
// per-lane blocks far above it, out of order across lanes, after which
// the counter jumps past every block.
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

// TestIslandQueuesVsSortedReference pins the merge layer's order for
// K in {1, 3, 8} against the same reference, with the seq each event
// should carry computed here from the documented rule: merge-mode pushes
// number from one shared counter; a window's pushes number from
// base + (lane+1)<<windowShift, and EndWindow moves the counter past
// every block. Pops and Clear are interleaved throughout.
func TestIslandQueuesVsSortedReference(t *testing.T) {
	for _, k := range []int{1, 3, 8} {
		for trial := 0; trial < 60; trial++ {
			name := fmt.Sprintf("k=%d trial=%d", k, trial)
			rng := rand.New(rand.NewSource(int64(100*k + trial)))
			iq := NewIslandQueues[int](k, 0)
			ref := &refQueue{}
			var seq uint64
			id := 0
			for step := 0; step < 400; step++ {
				switch op := rng.Intn(20); {
				case op < 9:
					seq++
					tm, lane := Time(rng.Intn(32)), rng.Intn(k)
					iq.Push(lane, tm, id)
					ref.push(tm, seq, id)
					id++
				case op < 11:
					iq.BeginWindow()
					wseq := make([]uint64, k)
					for n := rng.Intn(16); n > 0; n-- {
						tm, lane := Time(rng.Intn(32)), rng.Intn(k)
						wseq[lane]++
						iq.WorkerPush(lane, tm, id)
						ref.push(tm, seq+uint64(lane+1)<<windowShift+wseq[lane], id)
						id++
					}
					iq.EndWindow()
					seq += uint64(k+1) << windowShift
				case op < 18:
					want, wantOK := ref.pop()
					_, gt, gv, ok := iq.PopMin()
					if ok != wantOK || gt != want.time || gv != want.val {
						t.Fatalf("%s step %d: PopMin = (%v, %d, %v), reference (%v, %d, %v)",
							name, step, gt, gv, ok, want.time, want.val, wantOK)
					}
				case op == 18:
					iq.Clear()
					ref.entries = ref.entries[:0]
				}
				if iq.Len() != len(ref.entries) {
					t.Fatalf("%s step %d: Len = %d, reference holds %d", name, step, iq.Len(), len(ref.entries))
				}
			}
			for len(ref.entries) > 0 {
				want, _ := ref.pop()
				if _, gt, gv, ok := iq.PopMin(); !ok || gt != want.time || gv != want.val {
					t.Fatalf("%s drain: PopMin = (%v, %d, %v), reference (%v, %d)", name, gt, gv, ok, want.time, want.val)
				}
			}
		}
	}
}
