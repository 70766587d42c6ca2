package vtime

// IslandQueues is kept for bench/probes.go:222, which times its Push
// and PopMin as vtime.push_pop_ns. Every lane is one EventQueue, the
// queue the coordinator runs on, so events pop ordered by (time, push
// order) whatever lane they were pushed on.
type IslandQueues[T any] struct {
	q EventQueue[T]
}

// NewIslandQueues returns an empty queue with storage preallocated for
// hint events on each of k lanes.
func NewIslandQueues[T any](k, hint int) *IslandQueues[T] {
	return &IslandQueues[T]{q: *NewEventQueueSized[T](max(k, 1) * hint)}
}

// Push schedules v at time t. The lane is ignored.
func (iq *IslandQueues[T]) Push(lane int, t Time, v T) { iq.q.Push(t, v) }

// PopMin removes and returns the earliest event, reporting lane 0; ok
// is false when the queue is empty.
func (iq *IslandQueues[T]) PopMin() (lane int, t Time, v T, ok bool) {
	t, v, ok = iq.q.Pop()
	return 0, t, v, ok
}
