package virtid

import (
	"sort"
	"sync"
)

// MutexTable is the baseline implementation, matching MANA's original
// virtualisation layer (DMTCP's VirtualIdTable): an *ordered* map —
// std::map in the original C++, a sorted slice with binary search here —
// protected by one global mutex. Every operation, including the hot-path
// Lookup, serialises on the same lock and pays an O(log n) ordered
// search, which is what the NERSC production study measured as the
// dominant per-call cost at scale: the lock is contended by every
// application thread and the checkpoint helper, and the ordered probe
// chases len-dependent comparisons instead of one hash bucket.
type MutexTable struct {
	mu   sync.Mutex
	next [NumKinds]uint64
	// entries is kept sorted by VID. VIDs are allocated monotonically, so
	// Register is an append; Deregister pays an O(n) shift, as the
	// original's tree rebalancing did.
	entries [NumKinds][]Entry
}

// NewMutexTable returns an empty baseline table.
func NewMutexTable() *MutexTable {
	return &MutexTable{}
}

// find returns the index of v in the kind's sorted entries, or (i, false)
// with i the insertion point. Caller holds mu.
func (t *MutexTable) find(k Kind, v VID) (int, bool) {
	es := t.entries[k]
	i := sort.Search(len(es), func(i int) bool { return es[i].VID >= v })
	return i, i < len(es) && es[i].VID == v
}

// Register allocates the next virtual id under the global lock.
func (t *MutexTable) Register(k Kind, real Real) VID {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next[k]++
	v := VID(t.next[k])
	if _, dup := t.find(k, v); dup {
		panic("virtid: duplicate registration of " + k.String() + " handle")
	}
	// Monotonic allocation means v sorts after every live entry.
	t.entries[k] = append(t.entries[k], Entry{VID: v, Real: real})
	return v
}

// Lookup translates a virtual id: an ordered search under the global
// lock, exactly the per-call work the baseline design charges. The
// unlock is explicit rather than deferred to keep the hot path lean —
// the comparison against the sharded table should measure the design,
// not Go defer overhead.
func (t *MutexTable) Lookup(k Kind, v VID) (Real, bool) {
	t.mu.Lock()
	if i, ok := t.find(k, v); ok {
		real := t.entries[k][i].Real
		t.mu.Unlock()
		return real, true
	}
	t.mu.Unlock()
	return 0, false
}

// Deregister removes a mapping under the global lock.
func (t *MutexTable) Deregister(k Kind, v VID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	i, ok := t.find(k, v)
	if !ok {
		return false
	}
	t.entries[k] = append(t.entries[k][:i], t.entries[k][i+1:]...)
	return true
}

// Len reports the number of live mappings of one kind.
func (t *MutexTable) Len(k Kind) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.entries[k])
}

// Impl identifies the implementation.
func (t *MutexTable) Impl() Impl { return ImplMutex }

// Snapshot captures the table state; the internal representation is
// already sorted by virtual id.
func (t *MutexTable) Snapshot() Snapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	var s Snapshot
	s.Next = t.next
	for k := 0; k < NumKinds; k++ {
		s.Entries[k] = append([]Entry(nil), t.entries[k]...)
	}
	return s
}

// Restore replaces the table's contents with the snapshot's.
func (t *MutexTable) Restore(s Snapshot) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next = s.Next
	for k := 0; k < NumKinds; k++ {
		t.entries[k] = append([]Entry(nil), s.Entries[k]...)
	}
}
