package rank

import (
	"mana/internal/kernelsim"
	"mana/internal/scenario"
	"mana/internal/virtid"
)

// New returns rank id built outside any job: Build with a kernel model
// and a count table of its own, no mapping table and no sbrk reserve. It
// stays because bench/probes.go:77 times it as rank.new_us_per_rank.
func New(id int, personality kernelsim.Personality, impl virtid.Impl, script scenario.Program) *Rank {
	return Build(id, kernelsim.NewForTable(personality, impl), script, nil, 0, new(CountTable))
}

// ReleaseMem does nothing: page buffers are not recycled, so a retired
// rank's memory goes to the garbage collector with the rank. It stays
// because bench/probes.go:161 calls it on the ranks its probes build.
func (r *Rank) ReleaseMem() {}

// Restore makes r the rank FromImage brings up from img, with r's kernel
// model, program and checkpoint overhead and no mapping table or
// reserve. It stays because bench/probes.go:157 times it as
// rank.restore_us_per_rank.
func (r *Rank) Restore(img Image) {
	kernel, script, overhead := r.kernel, r.script, r.ckptOverhead
	FromImage(r, &img, &kernel, script, nil, 0)
	r.ckptOverhead = overhead
}
