package coordinator

import "mana/internal/memsim"

// Scratch is the storage runs share: a pool of full-size page buffers
// that every rank of a run draws its address-space pages from, and that
// Coordinator.Release feeds when the run retires. Everything else a run
// uses — the event queue, per-rank slices, rendezvous instances, the
// digester — the run allocates for itself in New and drops with the
// Coordinator.
//
// A Scratch is safe for concurrent use: the pool is internally locked,
// so one Scratch may back any number of live coordinators at once. A
// pooled page is zeroed before it is handed out, so a run on a warm
// Scratch is byte-identical to a cold one.
type Scratch struct {
	mem *memsim.Pool
}

// NewScratch returns a scratch with an empty page pool.
func NewScratch() *Scratch {
	return &Scratch{mem: memsim.NewPool()}
}

// MemStats exposes the page pool's allocation counters (gets, hits)
// for tests that pin warm-run reuse.
func (s *Scratch) MemStats() (gets, hits uint64) { return s.mem.Stats() }

// Release retires the coordinator: the pages every rank still owns
// return to the page pool of the run's Scratch (pages a checkpoint image
// references never do), and the coordinator must not be used again. A
// run built without a Scratch has no pool, so its pages go to the
// garbage collector.
func (c *Coordinator) Release() {
	for _, r := range c.ranks {
		r.ReleaseMem()
	}
}
