package vtime

import (
	"fmt"
	"testing"
)

// holdEvent stands in for the scheduler's event: eight bytes, no pointer.
type holdEvent struct{ arg, aux int32 }

// BenchmarkEventQueueHold is the classic hold model of a discrete-event
// simulator: the queue sits at a fixed population, and each operation
// pops the earliest event and pushes its successor a random interval
// later. The populations are the measured mean queue sizes of three
// benchmark workloads (deep-stencil ~400, ckpt-storm ~1,500, wide-idle
// ~8,000), so ns/op reads as the queue's share of one simulated event.
// The intervals come from a fixed table (drawn once from a seeded
// stream), so the loop measures the heap, not the generator.
func BenchmarkEventQueueHold(b *testing.B) {
	const span = 1 << 12
	rng := NewRNG(7)
	gaps := make([]Duration, span)
	for i := range gaps {
		gaps[i] = Duration(1 + rng.Intn(4000))
	}
	for _, n := range []int{400, 1500, 8000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			q := NewEventQueueSized[holdEvent](n)
			for i := 0; i < n; i++ {
				q.Push(Time(gaps[i%span])*Time(i%7), holdEvent{arg: int32(i)})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t, ev, _ := q.Pop()
				q.Push(t.Add(gaps[i&(span-1)]), ev)
			}
		})
	}
}
