package coordinator

import (
	"mana/internal/memsim"
	"mana/internal/rank"
	"mana/internal/vtime"
)

// Scratch holds the expensive per-run allocations a retired run leaves
// behind so the next run can reuse them: the sharded event-queue lanes,
// the per-rank bookkeeping slices, the collective rendezvous instances
// and the memsim page pool. It exists for fleet mode — thousands of
// simulations in one process — where cold-allocating these per run is
// the dominant cost.
//
// Ownership is move-based: New takes the storage out of the Scratch
// (leaving it empty), the run uses it exclusively, and
// Coordinator.Release moves it back reset. A Scratch therefore backs at
// most one live Coordinator; sharing one across concurrent runs is a
// caller bug. The zero point is always restored before reuse — cleared
// slices, cleared map, Reset queues, zeroed pages — so a run on
// recycled storage is byte-identical to a cold one.
type Scratch struct {
	queues      *vtime.IslandQueues[event]
	islandOf    []int
	inCollComm  []int
	fired       []bool
	lanebufs    []laneBuf
	merged      []pendingArrival
	held        map[int]bool
	ranks       []*rank.Rank
	formingPool []*forming
	// digest keeps its segments from run to run: each is a pure function
	// of the text stored with it (see digester).
	digest digester
	// mem is shared with every rank the run builds; unlike the slices
	// above it is internally locked and never moves — rank.ReleaseMem
	// feeds it at retirement and NewPooled draws from it at build time.
	mem *memsim.Pool
}

// NewScratch returns an empty scratch. The first run on it allocates
// cold; every later run reuses what its predecessor left behind.
func NewScratch() *Scratch {
	return &Scratch{
		held: make(map[int]bool),
		mem:  memsim.NewPool(),
	}
}

// MemStats exposes the page pool's allocation counters (gets, hits)
// for tests that pin warm-run reuse.
func (s *Scratch) MemStats() (gets, hits uint64) { return s.mem.Stats() }

// takeSlice moves the slice out of *p resized to n zero-valued elements,
// reusing its storage when the capacity suffices.
func takeSlice[T any](p *[]T, n int) []T {
	buf := *p
	*p = nil
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// takeQueues moves the recycled island queues out of the scratch, reset
// to k lanes with the given per-lane size hint, allocating fresh ones on
// a cold scratch.
func (s *Scratch) takeQueues(k, hint int) *vtime.IslandQueues[event] {
	q := s.queues
	s.queues = nil
	if q == nil {
		return vtime.NewIslandQueues[event](k, hint)
	}
	q.Reset(k, hint)
	return q
}

// takeLanebufs moves the window buffers out of the scratch, resized to n
// islands. Recycled buffers keep their grown deliveries/arrivals
// capacity — the whole point of pooling them — but start logically
// empty; neither holds a pointer, so what lies past their length keeps
// nothing of the previous run alive.
func (s *Scratch) takeLanebufs(n int) []laneBuf {
	bufs := s.lanebufs
	s.lanebufs = nil
	if cap(bufs) < n {
		return make([]laneBuf, n)
	}
	bufs = bufs[:n]
	for i := range bufs {
		b := &bufs[i]
		b.deliveries = b.deliveries[:0]
		b.arrivals = b.arrivals[:0]
		b.events, b.visits, b.dones = 0, 0, 0
		b.maxClock = 0
	}
	return bufs
}

// takeMerged moves the barrier's arrival scratch out of the scratch,
// empty. An arrival holds no pointer, so its capacity keeps nothing of
// the previous run alive.
func (s *Scratch) takeMerged() []pendingArrival {
	m := s.merged
	s.merged = nil
	return m[:0]
}

// takeHeld moves the held-rank set out of the scratch, cleared.
func (s *Scratch) takeHeld() map[int]bool {
	m := s.held
	s.held = nil
	if m == nil {
		return make(map[int]bool)
	}
	clear(m)
	return m
}

// takeRanks moves the rank slice storage out of the scratch (length 0,
// capacity preserved). The retired run's rank pointers were cleared at
// Release so they do not outlive their run.
func (s *Scratch) takeRanks(n int) []*rank.Rank {
	buf := s.ranks
	s.ranks = nil
	if cap(buf) < n {
		return make([]*rank.Rank, 0, n)
	}
	return buf[:0]
}

// takeForming moves the recycled rendezvous instances out of the
// scratch. Instances enter the pool reset (removeForming's invariant),
// so they are ready for newForming as-is.
func (s *Scratch) takeForming() []*forming {
	f := s.formingPool
	s.formingPool = nil
	return f
}

// takeDigester moves the fingerprint's segments out of the scratch,
// tables intact.
func (s *Scratch) takeDigester() digester {
	d := s.digest
	s.digest = digester{}
	return d
}

// Release moves the run's pooled storage back into the Scratch it was
// built from and retires the coordinator: the pages every rank still
// owns return to the shared pool (pages a checkpoint image references
// never do) and the coordinator must not be used again.
// A run built without a Scratch only releases rank memory (a no-op
// without a memsim pool). Callers should Release only runs that ended
// cleanly (Completed, or Failed awaiting no further Restart); a run
// abandoned mid-flight should simply be dropped.
func (c *Coordinator) Release() {
	for _, r := range c.ranks {
		r.ReleaseMem()
	}
	s := c.cfg.Scratch
	if s == nil {
		return
	}
	c.queues.Clear()
	s.queues = c.queues
	s.islandOf = c.islandOf
	s.inCollComm = c.inCollComm
	s.fired = c.fired
	s.lanebufs = c.lanebufs
	s.merged = c.merged
	clear(c.held)
	s.held = c.held
	clear(c.ranks)
	s.ranks = c.ranks[:0]
	// Only instances already reset by removeForming are recyclable;
	// in-flight rendezvous (possible on a Failed run) die with the run.
	s.formingPool = c.formingPool
	s.digest = c.digest
	c.queues = nil
	c.ranks = nil
	c.cfg.Scratch = nil
}
