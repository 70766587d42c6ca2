package vtime

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestEventQueuePopsInTimeOrder(t *testing.T) {
	q := NewEventQueue[string]()
	q.Push(30, "c")
	q.Push(10, "a")
	q.Push(20, "b")
	var got []string
	for {
		_, v, ok := q.Pop()
		if !ok {
			break
		}
		got = append(got, v)
	}
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Errorf("pop order = %v, want [a b c]", got)
	}
}

func TestEventQueueFIFOTieBreak(t *testing.T) {
	q := NewEventQueue[int]()
	// All at the same time: must pop in push order, not bucket order.
	for i := 0; i < 100; i++ {
		q.Push(5, i)
	}
	for i := 0; i < 100; i++ {
		tm, v, ok := q.Pop()
		if !ok || tm != 5 || v != i {
			t.Fatalf("pop %d = (%v, %d, %v), want (5, %d, true)", i, tm, v, ok, i)
		}
	}
}

func TestEventQueueMixedTimesStableWithinTime(t *testing.T) {
	q := NewEventQueue[int]()
	// Interleave pushes at two times; within each time, FIFO must hold.
	for i := 0; i < 50; i++ {
		q.Push(Time(i%2), i)
	}
	var at0, at1 []int
	for {
		tm, v, ok := q.Pop()
		if !ok {
			break
		}
		if tm == 0 {
			if len(at1) > 0 {
				t.Fatal("time-1 event popped before all time-0 events")
			}
			at0 = append(at0, v)
		} else {
			at1 = append(at1, v)
		}
	}
	if !sort.IntsAreSorted(at0) || !sort.IntsAreSorted(at1) {
		t.Errorf("FIFO violated within a time bucket: %v / %v", at0, at1)
	}
}

func TestEventQueuePeekAndLen(t *testing.T) {
	q := NewEventQueue[int]()
	if _, ok := q.PeekTime(); ok {
		t.Error("PeekTime on empty queue reported an event")
	}
	if _, _, ok := q.Pop(); ok {
		t.Error("Pop on empty queue reported an event")
	}
	q.Push(42, 1)
	q.Push(7, 2)
	if tm, ok := q.PeekTime(); !ok || tm != 7 {
		t.Errorf("PeekTime = (%v, %v), want (7, true)", tm, ok)
	}
	if q.Len() != 2 {
		t.Errorf("Len = %d, want 2", q.Len())
	}
	q.Pop()
	if q.Len() != 1 {
		t.Errorf("Len after pop = %d, want 1", q.Len())
	}
}

// Property: for any set of (time, id) pushes, popping yields times in
// non-decreasing order and, within equal times, ids in push order.
func TestPropertyEventQueueDeterministicOrder(t *testing.T) {
	f := func(times []uint8) bool {
		q := NewEventQueue[int]()
		for i, tm := range times {
			q.Push(Time(tm), i)
		}
		lastTime := Time(-1)
		lastSeqAtTime := -1
		for {
			tm, id, ok := q.Pop()
			if !ok {
				break
			}
			if tm < lastTime {
				return false
			}
			if tm == lastTime && id < lastSeqAtTime {
				return false
			}
			if tm != lastTime {
				lastTime = tm
				lastSeqAtTime = -1
			}
			if Time(times[id]) != tm {
				return false
			}
			lastSeqAtTime = id
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestNewEventQueueSized pins the preallocation contract: the size hint
// becomes arena capacity, and pushes within the hint never reallocate.
func TestNewEventQueueSized(t *testing.T) {
	q := NewEventQueueSized[int](128)
	if q.Cap() < 128 {
		t.Fatalf("Cap = %d, want >= 128", q.Cap())
	}
	capBefore := q.Cap()
	for i := 0; i < 128; i++ {
		q.Push(Time(i), i)
	}
	if q.Cap() != capBefore {
		t.Fatalf("pushing within the hint grew capacity %d -> %d", capBefore, q.Cap())
	}
	if q2 := NewEventQueueSized[int](-5); q2.Cap() != 0 || q2.Len() != 0 {
		t.Fatalf("negative hint: Cap=%d Len=%d, want 0, 0", q2.Cap(), q2.Len())
	}
}

// TestSizedQueueHoldsItsHint pins what the size hint buys: a hold-model
// stream (pop the earliest event, push it back later) whose population
// stays at the hint, with intervals from 1 to 2^23 so the events spread
// over many buckets and every chain keeps a tail chunk, never grows the
// preallocated arena. An arena sized for the events alone doubles.
func TestSizedQueueHoldsItsHint(t *testing.T) {
	for _, hint := range []int{1, 71, 534, 8192, 8649} {
		rng := NewRNG(uint64(hint))
		gap := func() Duration { return Duration(1) << rng.Intn(24) }
		q := NewEventQueueSized[int](hint)
		want := q.Cap()
		for i := 0; i < hint; i++ {
			q.Push(Time(0).Add(gap()), i)
		}
		for i := 0; i < 8*hint+1000; i++ {
			tm, v, _ := q.Pop()
			q.Push(tm.Add(gap()), v)
		}
		if q.Cap() != want {
			t.Errorf("hint %d: a hold at the hint moved Cap %d -> %d", hint, want, q.Cap())
		}
	}
}

// TestLatePushBurstRebasesOnce pins the late-push path at scale: after a
// pop, a burst of 65,536 pushes, each below the one before and all below
// the popped time, costs one rebase at the next pop, not one per push.
// The queue then still pops everything in time order.
func TestLatePushBurstRebasesOnce(t *testing.T) {
	const n = 1 << 16
	const base = Time(1 << 40)
	q := NewEventQueue[int]()
	for i := 0; i < n; i++ {
		q.Push(base+Time(3*i), i)
	}
	if tm, _, _ := q.Pop(); tm != base {
		t.Fatalf("first pop at %v, want %v", tm, base)
	}
	for i := 1; i <= n; i++ {
		q.Push(base-Time(i), n+i)
	}
	if rebases := q.Rebases(); rebases != 0 {
		t.Fatalf("%d rebases before the next pop, want 0: pushes must not rebase", rebases)
	}
	if tm, _, _ := q.Pop(); tm != base-n {
		t.Fatalf("pop after the burst at %v, want %v", tm, base-n)
	}
	if rebases := q.Rebases(); rebases != 1 {
		t.Fatalf("burst cost %d rebases, want 1", rebases)
	}
	prev, count := base-n, 2
	for {
		tm, _, ok := q.Pop()
		if !ok {
			break
		}
		if tm < prev {
			t.Fatalf("pop %d at %v after %v", count, tm, prev)
		}
		prev = tm
		count++
	}
	if count != 2*n {
		t.Fatalf("popped %d events, want %d", count, 2*n)
	}
	if rebases := q.Rebases(); rebases != 1 {
		t.Fatalf("%d rebases in all, want 1", rebases)
	}
}

// TestEventQueueStorageBound pins the bound in the EventQueue doc: after
// a 65,536-event hold the arena holds no more than twice the peak
// population plus StorageSlack. The hold's intervals span four decades,
// so events fill many buckets at once.
func TestEventQueueStorageBound(t *testing.T) {
	const n = 1 << 16
	rng := NewRNG(11)
	gap := func() Duration { return Duration(1) << rng.Intn(24) }
	q := NewEventQueue[int]()
	for i := 0; i < n; i++ {
		q.Push(Time(0).Add(gap()), i)
	}
	for i := 0; i < 4*n; i++ {
		tm, v, ok := q.Pop()
		if !ok {
			t.Fatal("queue ran dry during the hold")
		}
		q.Push(tm.Add(gap()), v)
	}
	if q.Len() != n {
		t.Fatalf("Len = %d after the hold, want %d", q.Len(), n)
	}
	grown := q.Cap()
	t.Logf("Cap = %d after the hold (peak %d)", grown, n)
	if limit := 2*n + StorageSlack; grown > limit {
		t.Fatalf("Cap = %d after a %d-event hold, want <= %d", grown, n, limit)
	}
}
