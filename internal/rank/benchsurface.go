package rank

// ReleaseMem does nothing: page buffers are not recycled, so a retired
// rank's memory goes to the garbage collector with the rank. It stays
// because bench/probes.go:161 calls it on the ranks its probes build.
func (r *Rank) ReleaseMem() {}
