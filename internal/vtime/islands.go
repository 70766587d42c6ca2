package vtime

// IslandQueues is the sharded event queue of the island scheduler: K
// lanes, each an EventQueue owned by one island, plus a merge layer that
// preserves the single-queue (time, seq) FIFO total order across all of
// them.
//
// In serial (merge) mode one goroutine calls Push and PopMin: Push
// assigns sequence numbers from one shared counter exactly as a single
// EventQueue would, and PopMin pops the globally earliest (time, seq)
// head across lanes — so a K-lane IslandQueues driven this way pops in
// the order a single EventQueue fed the same stream would, whatever the
// partition (the property the island determinism tests pin).
//
// In window (parallel) mode the conservative scheduler lets one worker
// goroutine drain each lane concurrently up to a lookahead horizon. The
// worker pops its own lane with Lane(i).Pop and pushes island-local
// follow-up events with WorkerPush, which draws from a per-lane sequence
// block reserved by BeginWindow: block seqs are larger than every seq
// assigned before the window (so follow-ups order after pre-existing
// events at equal times, matching push-order FIFO) and disjoint across
// lanes (so no coordination — and no data race — between workers).
// EndWindow advances the shared counter past every block. Events pushed
// from different lanes during the same window tie-break by lane index at
// equal times; the scheduler only runs windows over phases whose
// cross-lane equal-time effects are commutative, so this deterministic
// order is as good as the serial one.
type IslandQueues[T any] struct {
	lanes []*EventQueue[T]
	seq   uint64
	// window state: base is the shared counter at BeginWindow; wseq[i]
	// counts lane i's window pushes. Each lane's block starts at
	// base + (i+1)<<windowShift, so blocks are disjoint and all larger
	// than any pre-window seq.
	base     uint64
	wseq     []uint64
	inWindow bool
}

// windowShift sizes a window's per-lane seq block: 2^32 pushes per lane
// per window, far beyond any real window's event count.
const windowShift = 32

// NewIslandQueues returns K empty lanes with per-lane heap storage
// preallocated for hint events each.
func NewIslandQueues[T any](k, hint int) *IslandQueues[T] {
	if k < 1 {
		panic("vtime: IslandQueues needs at least one lane")
	}
	lanes := make([]*EventQueue[T], k)
	for i := range lanes {
		lanes[i] = NewEventQueueSized[T](hint)
	}
	return &IslandQueues[T]{lanes: lanes, wseq: make([]uint64, k)}
}

// Lane returns one lane for direct draining by its worker. Only the
// owning worker may Pop it, and only between BeginWindow and EndWindow
// or from the single merge-mode goroutine.
func (iq *IslandQueues[T]) Lane(i int) *EventQueue[T] { return iq.lanes[i] }

// Len returns the total number of scheduled events across all lanes.
func (iq *IslandQueues[T]) Len() int {
	n := 0
	for _, q := range iq.lanes {
		n += q.Len()
	}
	return n
}

// Push schedules v at time t on the given lane, drawing from the shared
// sequence counter. Single-goroutine (merge mode or barrier) only.
func (iq *IslandQueues[T]) Push(lane int, t Time, v T) {
	if iq.inWindow {
		panic("vtime: IslandQueues.Push during a window — use WorkerPush")
	}
	iq.seq++
	iq.lanes[lane].PushAt(t, iq.seq, v)
}

// PopMin removes and returns the globally earliest event by (time, seq)
// across all lanes, together with the lane it came from. Single-goroutine
// only.
func (iq *IslandQueues[T]) PopMin() (lane int, t Time, v T, ok bool) {
	lane = iq.minLane()
	if lane < 0 {
		var zero T
		return 0, 0, zero, false
	}
	t, v, _ = iq.lanes[lane].Pop()
	return lane, t, v, true
}

// PeekMin returns the lane and time of the globally earliest event
// without removing it; ok is false when every lane is empty.
func (iq *IslandQueues[T]) PeekMin() (lane int, t Time, ok bool) {
	lane = iq.minLane()
	if lane < 0 {
		return 0, 0, false
	}
	t, _, _ = iq.lanes[lane].PeekKey()
	return lane, t, true
}

// minLane returns the lane holding the globally smallest (time, seq)
// head, or -1 if all lanes are empty. Seqs are unique across lanes (one
// shared counter; disjoint window blocks), so the order is total.
func (iq *IslandQueues[T]) minLane() int {
	best := -1
	var bestT Time
	var bestS uint64
	for i, q := range iq.lanes {
		t, s, ok := q.PeekKey()
		if !ok {
			continue
		}
		if best < 0 || keyLess(t, s, bestT, bestS) {
			best, bestT, bestS = i, t, s
		}
	}
	return best
}

// BeginWindow reserves disjoint per-lane sequence blocks so workers can
// push onto their own lanes without coordination. Must be balanced by
// EndWindow before any merge-mode Push.
func (iq *IslandQueues[T]) BeginWindow() {
	if iq.inWindow {
		panic("vtime: BeginWindow while a window is already open")
	}
	iq.base = iq.seq
	clear(iq.wseq)
	iq.inWindow = true
}

// WorkerPush schedules v at time t on the given lane during a window.
// Safe for concurrent use across DISTINCT lanes: each lane's seq block
// and heap are touched only by its owning worker.
func (iq *IslandQueues[T]) WorkerPush(lane int, t Time, v T) {
	iq.wseq[lane]++
	seq := iq.base + uint64(lane+1)<<windowShift + iq.wseq[lane]
	iq.lanes[lane].PushAt(t, seq, v)
}

// EndWindow closes the window, advancing the shared counter past every
// reserved block so later merge-mode pushes order after all window
// pushes.
func (iq *IslandQueues[T]) EndWindow() {
	if !iq.inWindow {
		panic("vtime: EndWindow without BeginWindow")
	}
	iq.seq = iq.base + uint64(len(iq.lanes)+1)<<windowShift
	iq.inWindow = false
}

// Clear discards every scheduled event on every lane, keeping each
// lane's heap storage and the shared counter (post-Clear pushes still
// order after everything pushed before, exactly like EventQueue.Clear).
func (iq *IslandQueues[T]) Clear() {
	for _, q := range iq.lanes {
		q.Clear()
	}
}
