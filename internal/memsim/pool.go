package memsim

import "sync"

// Pool recycles full-size page buffers across address-space lifetimes,
// so a fleet of simulations does not re-allocate the same pages for every
// run. Pages with a shorter buffer never pass through it: those are the
// allocator's business.
//
// Only pages a live region still owns at Release ever enter the pool.
// They are safe to recycle because an owned page has exactly one
// reference: every capture freezes the pages it shares, and a frozen
// page is never owned again — the next write copies it. Frozen pages are
// deliberately NOT recycled: committed checkpoint images reference them,
// so reusing that storage would corrupt retained images.
//
// Pages are zeroed on the way out, so a pooled page is
// indistinguishable from newPage(PageSize) — the property the
// byte-identical-report tests rely on.
type Pool struct {
	mu   sync.Mutex
	free []*page
	// gets counts pages served, hits the subset served from the
	// freelist — the warm-vs-cold observable the fleet tests pin.
	gets uint64
	hits uint64
}

// NewPool returns an empty page pool. A Pool is safe for concurrent
// use: a fleet engine shares one pool across the runs it executes
// concurrently.
func NewPool() *Pool {
	return &Pool{}
}

// get returns a zeroed full-size page, recycled when one is free.
func (p *Pool) get() *page {
	p.mu.Lock()
	p.gets++
	n := len(p.free)
	if n == 0 {
		p.mu.Unlock()
		return newPage(PageSize)
	}
	pg := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	p.hits++
	p.mu.Unlock()
	clear(pg.b)
	return pg
}

// put returns a full-size page to the pool. The caller must hold the
// only reference to it and must not use it afterwards.
func (p *Pool) put(pg *page) {
	p.mu.Lock()
	p.free = append(p.free, pg)
	p.mu.Unlock()
}

// Stats returns the pages served and the subset that came from the
// freelist instead of the allocator.
func (p *Pool) Stats() (gets, hits uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.gets, p.hits
}
