package vtime

import (
	"math/rand"
	"testing"
)

// TestIslandQueuesMatchesSingleQueueOrder pins the shim bench/probes.go
// times: events pushed on any of k lanes pop in exactly the order one
// EventQueue fed the same stream pops them.
func TestIslandQueuesMatchesSingleQueueOrder(t *testing.T) {
	for _, k := range []int{1, 3} {
		rng := rand.New(rand.NewSource(int64(k)))
		single, iq := NewEventQueue[int](), NewIslandQueues[int](k, 0)
		for i := 0; i < 500; i++ {
			tm := Time(rng.Intn(16)) // few times, many ties
			single.Push(tm, i)
			iq.Push(rng.Intn(k), tm, i)
		}
		for n := 0; ; n++ {
			wt, wv, wok := single.Pop()
			_, gt, gv, ok := iq.PopMin()
			if ok != wok || gt != wt || gv != wv {
				t.Fatalf("k=%d pop %d: shim (%v, %d, %v), EventQueue (%v, %d, %v)", k, n, gt, gv, ok, wt, wv, wok)
			}
			if !ok {
				break
			}
		}
	}
}

// TestIslandQueuesVsSortedReference checks the shim for k in {1, 3, 8}
// against the sorted reference in oracle_test.go, with pops interleaved
// between pushes: it pops in (time, push order) whatever the lane.
func TestIslandQueuesVsSortedReference(t *testing.T) {
	for _, k := range []int{1, 3, 8} {
		rng := rand.New(rand.NewSource(int64(100 * k)))
		iq, ref := NewIslandQueues[int](k, 0), &refQueue{}
		for i := 0; i < 2000; i++ {
			if rng.Intn(3) > 0 {
				tm := Time(rng.Intn(32))
				iq.Push(rng.Intn(k), tm, i)
				ref.push(tm, i)
				continue
			}
			want, wok := ref.pop()
			if _, gt, gv, ok := iq.PopMin(); ok != wok || gt != want.time || gv != want.val {
				t.Fatalf("k=%d step %d: PopMin = (%v, %d, %v), reference (%v, %d, %v)", k, i, gt, gv, ok, want.time, want.val, wok)
			}
		}
		for {
			want, wok := ref.pop()
			_, gt, gv, ok := iq.PopMin()
			if ok != wok || gt != want.time || gv != want.val {
				t.Fatalf("k=%d drain: PopMin = (%v, %d, %v), reference (%v, %d, %v)", k, gt, gv, ok, want.time, want.val, wok)
			}
			if !ok {
				break
			}
		}
	}
}
