package coordinator

// Scratch holds nothing: a run allocates all of its storage, page
// buffers included, and drops it with the Coordinator. It stays because
// bench/traced.go:53 and :144 pass one through every traced job and
// bench/traced.go:86 sets it as Config.Scratch.
type Scratch struct{}

// NewScratch returns an empty Scratch. It stays because
// bench/traced.go:196 and :258 build one per traced pass.
func NewScratch() *Scratch { return &Scratch{} }

// MemStats returns 0, 0: no page is pooled. It stays because
// bench/traced.go:285 reads it, and with no pages served it reports no
// memsim.pool_hit_ratio.
func (s *Scratch) MemStats() (gets, hits uint64) { return 0, 0 }

// Release does nothing: the run's memory goes to the garbage collector
// with the Coordinator. It stays because bench/traced.go:137 times it as
// the last phase of a traced job.
func (c *Coordinator) Release() {}
