package virtid

// Table is the virtual-to-real translation table of one rank. Lookup is
// the hot path — every MPI call that passes a handle performs at least
// one — and is a bounds check plus one indexed load.
//
// A Table has a single owner: only the goroutine driving its rank may
// call it, and a checkpoint snapshots it with the rank quiesced, so it
// takes no lock. Which MANA design it stands for (Impl) changes what the
// rank is charged per lookup and write, not how the table works.
type Table struct {
	impl  Impl
	kinds [NumKinds]window
	// memo is the last Snapshot taken, dropped by the next Register,
	// Deregister or Restore: checkpoints between which the rank minted and
	// retired no handle share one immutable snapshot, entries and digest
	// text alike.
	memo *Snapshot
}

// window holds one kind's mappings densely, slot i for virtual id
// base+i, from the oldest live id to the newest; a slot whose VID is
// zero is a hole. Ids are minted in order and requests retire oldest
// first, so a rank's window stays a few entries wide.
type window struct {
	next  uint64 // the last id minted
	base  VID    // the id of slots[0]; never zero while slots is non-empty
	live  int
	slots []Entry
}

// New returns an empty table priced as the selected implementation.
func New(i Impl) Table { return Table{impl: i} }

// Impl identifies the MANA table design the rank is charged for.
func (t *Table) Impl() Impl { return t.impl }

// Len reports the number of live mappings of one kind.
func (t *Table) Len(k Kind) int { return t.kinds[k].live }

// Register allocates the next virtual id in the kind's namespace and maps
// it to the given real handle.
func (t *Table) Register(k Kind, real Real) VID {
	w := &t.kinds[k]
	w.next++
	v := VID(w.next)
	w.put(Entry{VID: v, Real: real})
	t.memo = nil
	return v
}

// put appends e to the window, with a hole for every id between the
// window's last slot and e's (ids minted and retired, or never live
// here since a Restore).
func (w *window) put(e Entry) {
	if len(w.slots) == 0 {
		w.base = e.VID
	}
	end := w.base + VID(len(w.slots))
	if e.VID < end {
		panic("virtid: handle registered twice, or a snapshot out of order")
	}
	if gap := int(e.VID - end); gap > 0 {
		w.slots = append(w.slots, make([]Entry, gap)...)
	}
	w.slots = append(w.slots, e)
	w.live++
}

// Lookup translates a virtual id; ok is false for ids that were never
// registered or have been deregistered (a miss is a virtualisation bug in
// the caller, or a stale handle from a dead timeline). The zero VID is
// never in range, because base is never zero.
func (t *Table) Lookup(k Kind, v VID) (Real, bool) {
	w := &t.kinds[k]
	if i := uint64(v - w.base); i < uint64(len(w.slots)) {
		e := w.slots[i]
		return e.Real, e.VID == v
	}
	return 0, false
}

// Deregister removes a mapping, reporting whether it existed, and trims
// the holes it leaves at either end of the window. Virtual ids are never
// reused: the allocation counter only moves forward.
func (t *Table) Deregister(k Kind, v VID) bool {
	w := &t.kinds[k]
	i := uint64(v - w.base)
	if i >= uint64(len(w.slots)) || w.slots[i].VID != v {
		return false
	}
	w.slots[i] = Entry{}
	w.live--
	t.memo = nil
	n := len(w.slots)
	for n > 0 && w.slots[n-1].VID == 0 {
		n--
	}
	h := 0
	for h < n && w.slots[h].VID == 0 {
		h++
	}
	w.slots = w.slots[:n]
	if h > 0 {
		// Shift down rather than reslice, so the slots keep their
		// capacity and request churn allocates nothing.
		w.base += VID(h)
		w.slots = w.slots[:copy(w.slots, w.slots[h:])]
	}
	return true
}

// Snapshot captures the table state for a checkpoint image. Walking the
// windows yields each kind's entries already sorted by virtual id. The
// result is memoised until the table next changes, so it is shared and
// must be treated as immutable.
func (t *Table) Snapshot() Snapshot {
	if t.memo != nil {
		return *t.memo
	}
	s := new(Snapshot)
	total := 0
	for k := range t.kinds {
		total += t.kinds[k].live
	}
	all := make([]Entry, 0, total)
	for k := range t.kinds {
		w := &t.kinds[k]
		s.Next[k] = w.next
		start := len(all)
		for _, e := range w.slots {
			if e.VID != 0 {
				all = append(all, e)
			}
		}
		if len(all) > start {
			s.Entries[k] = all[start:len(all):len(all)]
		}
	}
	// "vt(k,next);" per kind plus ",vid=real" per entry, generously.
	s.text = s.appendText(make([]byte, 0, 32*NumKinds+40*total))
	t.memo = s
	return *s
}

// Restore replaces the table's contents with a snapshot's. Mappings
// registered after the snapshot was taken — handles of the dead timeline
// — no longer resolve afterwards, and the restored counters make replayed
// registrations mint the same virtual ids.
func (t *Table) Restore(s Snapshot) {
	for k := range t.kinds {
		w := &t.kinds[k]
		w.next, w.live, w.slots = s.Next[k], 0, w.slots[:0]
		for _, e := range s.Entries[k] {
			w.put(e)
		}
	}
	t.memo = nil
}
