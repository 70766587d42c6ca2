package virtid

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
)

const (
	// numShards is the per-kind shard count. A power of two so the FNV
	// hash can be masked instead of divided; 16 shards is enough to
	// spread the hot handles (MPI_COMM_WORLD, the basic datatypes, the
	// in-flight request window) across distinct cache lines.
	numShards = 16
	// shardBits is log2(numShards): the low hash bits select the shard,
	// the remaining bits index into the shard's slot array, so one FNV
	// computation serves both.
	shardBits = 4
)

// lut is one shard's published lookup table: an immutable open-addressed
// slot array (linear probing, power-of-two size, load factor <= 1/2, VID
// zero marking an empty slot). Readers probe it without any
// synchronisation beyond the atomic pointer load that fetched it;
// writers never mutate a published lut, they build a replacement and
// publish that.
type lut struct {
	mask  uint64
	slots []Entry
	live  int
	// small backs slots for a table of up to two entries — nearly every
	// shard of an MPI handle table — so such a lut is one allocation.
	small [minSlots]Entry
}

// minSlots is the smallest slot array: two entries at load factor 1/2.
const minSlots = 4

// emptyLUT is the published table of every shard that holds nothing: a
// fresh shard's, and one a Restore leaves empty. It is shared by every
// table in the process and never written — writers build a replacement.
var emptyLUT = &lut{mask: minSlots - 1, slots: make([]Entry, minSlots)}

// shard is one slot of a kind's shard array. Readers never take the
// mutex: they atomically load the published lut and probe it. Writers
// serialise on mu, build a private replacement, and publish it with a
// single atomic store (copy-on-write). A reader holding a just-replaced
// lut simply observes the table as of its load — exactly the memory-model
// guarantee a real lock-free MANA lookup path needs.
type shard struct {
	mu  sync.Mutex
	lut atomic.Pointer[lut]
}

// ShardedTable is the optimised implementation: per-kind shard arrays
// selected by an FNV-1a hash of the virtual id, each shard publishing an
// immutable open-addressed table through sync/atomic, so steady-state
// lookups take no lock, touch one cache line of slot data in the common
// case, and allocate nothing. Registration and deregistration pay a
// shard-local rebuild — cheap, because MPI handle populations per shard
// are small (a few communicators and datatypes; requests are
// deregistered as soon as their wait completes).
type ShardedTable struct {
	next   [NumKinds]atomic.Uint64
	shards [NumKinds][numShards]shard
	// memo is the last Snapshot taken, dropped by the next Register,
	// Deregister or Restore: checkpoints between which the rank minted and
	// retired no handle share one immutable snapshot, entries and digest
	// text alike, instead of gathering and sorting the table again.
	memo atomic.Pointer[Snapshot]
}

// NewShardedTable returns an empty sharded table with every shard's
// empty lut pre-published, so the read path never needs a nil check
// beyond the pointer load.
func NewShardedTable() *ShardedTable {
	t := &ShardedTable{}
	for k := 0; k < NumKinds; k++ {
		for i := range t.shards[k] {
			t.shards[k][i].lut.Store(emptyLUT)
		}
	}
	return t
}

// fnvOf is FNV-1a over the virtual id's eight bytes, unrolled and
// open-coded rather than using hash/fnv so the hot path performs no loop
// branches, no interface calls and no allocations.
func fnvOf(v VID) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	x := uint64(v)
	h := uint64(offset64)
	h = (h ^ (x & 0xff)) * prime64
	h = (h ^ ((x >> 8) & 0xff)) * prime64
	h = (h ^ ((x >> 16) & 0xff)) * prime64
	h = (h ^ ((x >> 24) & 0xff)) * prime64
	h = (h ^ ((x >> 32) & 0xff)) * prime64
	h = (h ^ ((x >> 40) & 0xff)) * prime64
	h = (h ^ ((x >> 48) & 0xff)) * prime64
	h = (h ^ (x >> 56)) * prime64
	return h
}

// shardOf selects a shard from the low FNV bits.
func shardOf(v VID) int { return int(fnvOf(v) & (numShards - 1)) }

// newLUT returns an empty private lut sized for n entries: the load
// factor stays at or below 1/2, which bounds linear-probe runs and
// guarantees an empty slot terminates every miss probe.
func newLUT(n int) *lut {
	size := uint64(minSlots)
	for size < uint64(n)*2 {
		size <<= 1
	}
	l := &lut{mask: size - 1}
	if size == minSlots {
		l.slots = l.small[:]
	} else {
		l.slots = make([]Entry, size)
	}
	return l
}

// insert adds an entry to a lut that is still private to its builder.
func (l *lut) insert(e Entry) {
	i := (fnvOf(e.VID) >> shardBits) & l.mask
	for l.slots[i].VID != 0 {
		i = (i + 1) & l.mask
	}
	l.slots[i] = e
	l.live++
}

// rebuild constructs a new lut holding the given entries; none at all is
// the shared emptyLUT.
func rebuild(entries []Entry) *lut {
	if len(entries) == 0 {
		return emptyLUT
	}
	n := newLUT(len(entries))
	for _, e := range entries {
		n.insert(e)
	}
	return n
}

// liveEntries collects a lut's entries. Caller holds the shard mutex, so
// the result reflects the latest published state.
func (l *lut) liveEntries() []Entry {
	out := make([]Entry, 0, l.live)
	for _, e := range l.slots {
		if e.VID != 0 {
			out = append(out, e)
		}
	}
	return out
}

// Register allocates the next virtual id and publishes the new mapping
// with a shard-local copy-on-write rebuild.
func (t *ShardedTable) Register(k Kind, real Real) VID {
	v := VID(t.next[k].Add(1))
	s := &t.shards[k][shardOf(v)]
	s.mu.Lock()
	defer s.mu.Unlock()
	entries := s.lut.Load().liveEntries()
	for _, e := range entries {
		if e.VID == v {
			panic("virtid: duplicate registration of " + k.String() + " handle")
		}
	}
	s.lut.Store(rebuild(append(entries, Entry{VID: v, Real: real})))
	t.dropMemo()
	return v
}

// Lookup is the lock-free read path: one FNV hash, one atomic pointer
// load, and a short linear probe of an immutable slot array — no lock,
// no allocation.
func (t *ShardedTable) Lookup(k Kind, v VID) (Real, bool) {
	if v == 0 {
		return 0, false // the null handle; also keeps empty slots unmatchable
	}
	h := fnvOf(v)
	l := t.shards[k][h&(numShards-1)].lut.Load()
	i := (h >> shardBits) & l.mask
	for {
		e := l.slots[i]
		if e.VID == v {
			return e.Real, true
		}
		if e.VID == 0 {
			return 0, false
		}
		i = (i + 1) & l.mask
	}
}

// Deregister removes a mapping with a shard-local copy-on-write rebuild.
func (t *ShardedTable) Deregister(k Kind, v VID) bool {
	s := &t.shards[k][shardOf(v)]
	s.mu.Lock()
	defer s.mu.Unlock()
	entries := s.lut.Load().liveEntries()
	for i, e := range entries {
		if e.VID == v {
			s.lut.Store(rebuild(append(entries[:i], entries[i+1:]...)))
			t.dropMemo()
			return true
		}
	}
	return false
}

// Len reports the number of live mappings of one kind.
func (t *ShardedTable) Len(k Kind) int {
	n := 0
	for i := range t.shards[k] {
		n += t.shards[k][i].lut.Load().live
	}
	return n
}

// Impl identifies the implementation.
func (t *ShardedTable) Impl() Impl { return ImplSharded }

// dropMemo forgets the memoised snapshot after a write. The load keeps
// request churn, which follows no snapshot, from writing a shared line.
func (t *ShardedTable) dropMemo() {
	if t.memo.Load() != nil {
		t.memo.Store(nil)
	}
}

// Snapshot captures the table state with entries sorted by virtual id:
// gathered from the shards into one exact-size slice and sorted there.
// The result is memoised until the table next changes, so it is shared
// and must be treated as immutable. The caller must quiesce writers first
// (the checkpoint protocol does: images are captured only after every
// rank has stopped at a call boundary), as a snapshot concurrent with a
// Register could otherwise straddle the allocation counter and the
// published tables.
func (t *ShardedTable) Snapshot() Snapshot {
	if m := t.memo.Load(); m != nil {
		return *m
	}
	s := new(Snapshot)
	total := 0
	for k := 0; k < NumKinds; k++ {
		total += t.Len(Kind(k))
	}
	all := make([]Entry, 0, total)
	for k := 0; k < NumKinds; k++ {
		s.Next[k] = t.next[k].Load()
		start := len(all)
		for i := range t.shards[k] {
			if l := t.shards[k][i].lut.Load(); l.live > 0 {
				for _, e := range l.slots {
					if e.VID != 0 {
						all = append(all, e)
					}
				}
			}
		}
		if es := all[start:len(all):len(all)]; len(es) > 0 {
			slices.SortFunc(es, func(a, b Entry) int { return cmp.Compare(a.VID, b.VID) })
			s.Entries[k] = es
		}
	}
	// "vt(k,next);" per kind plus ",vid=real" per entry, generously.
	s.text = s.appendText(make([]byte, 0, 32*NumKinds+40*total))
	t.memo.Store(s)
	return *s
}

// Restore replaces the table's contents with the snapshot's. Every shard
// the snapshot leaves empty publishes the shared emptyLUT; only the
// others — a handful, for an MPI handle population — are rebuilt.
func (t *ShardedTable) Restore(s Snapshot) {
	for k := 0; k < NumKinds; k++ {
		t.next[k].Store(s.Next[k])
		var count [numShards]int
		for _, e := range s.Entries[k] {
			count[shardOf(e.VID)]++
		}
		var luts [numShards]*lut
		for i, n := range count {
			luts[i] = emptyLUT
			if n > 0 {
				luts[i] = newLUT(n)
			}
		}
		for _, e := range s.Entries[k] {
			luts[shardOf(e.VID)].insert(e)
		}
		for i := range t.shards[k] {
			sh := &t.shards[k][i]
			sh.mu.Lock()
			sh.lut.Store(luts[i])
			sh.mu.Unlock()
		}
	}
	t.dropMemo()
}
