package virtid

import (
	"cmp"
	"math"
	"slices"
	"testing"
)

// FuzzTableVsMap drives a Table and a map[Kind]map[VID]Real model with
// the same arbitrary operations — registrations (zero real handles
// included), deregistrations and lookups of live, retired, never-minted,
// zero and MaxUint64 ids in any order, snapshots, and restores of earlier
// snapshots (holes and all, into the same table or a fresh one) followed
// by more registration — and requires they agree after every step. Each
// snapshot must equal the model sorted by id, in entries and in text.
func FuzzTableVsMap(f *testing.F) {
	f.Add([]byte{0, 7, 6, 1, 12, 2, 3, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0, 3, 1, 3, 3, 0, 1, 8, 0, 9, 4, 0, 0, 5, 2, 1})
	f.Add([]byte{12, 5, 12, 6, 12, 7, 13, 8, 3, 0, 13, 3, 13, 4, 0, 0, 16, 1, 2, 4, 12, 9, 14, 3})
	f.Add([]byte{1, 0, 1, 1, 2, 2, 2, 4, 5, 0, 4, 0, 10, 0, 11, 255})
	f.Fuzz(func(t *testing.T, ops []byte) {
		tab := New(ImplSharded)
		model := map[Kind]map[VID]Real{Comm: {}, Datatype: {}, Request: {}}
		var next [NumKinds]uint64
		var minted [NumKinds][]VID
		snaps := []*Snapshot{{}}

		// pick chooses an id to deregister or look up: zero, MaxUint64,
		// one not minted yet, or any id minted so far, live or retired.
		pick := func(k Kind, sel byte) VID {
			switch {
			case sel%5 == 0:
				return 0
			case sel%5 == 1:
				return math.MaxUint64
			case sel%5 == 2 || len(minted[k]) == 0:
				return VID(next[k] + 1 + uint64(sel/5))
			}
			return minted[k][int(sel/5)%len(minted[k])]
		}
		for len(ops) >= 2 {
			op, arg := ops[0], ops[1]
			ops = ops[2:]
			k := Kind(op / 6 % NumKinds)
			switch op % 6 {
			case 0: // Register
				real := Real(arg) * 0x01000193
				if arg%4 == 0 {
					real = 0
				}
				v := tab.Register(k, real)
				next[k]++
				if v != VID(next[k]) {
					t.Fatalf("Register(%v) minted %d, want %d", k, v, next[k])
				}
				model[k][v] = real
				minted[k] = append(minted[k], v)
			case 1: // Deregister
				v := pick(k, arg)
				_, live := model[k][v]
				if got := tab.Deregister(k, v); got != live {
					t.Fatalf("Deregister(%v, %d) = %v, model %v", k, v, got, live)
				}
				delete(model[k], v)
			case 2: // Lookup
				v := pick(k, arg)
				want, live := model[k][v]
				if got, ok := tab.Lookup(k, v); ok != live || got != want {
					t.Fatalf("Lookup(%v, %d) = (%#x, %v), model (%#x, %v)", k, v, got, ok, want, live)
				}
			case 3: // Snapshot
				s := tab.Snapshot()
				sameSnapshot(t, "Snapshot", s, modelSnapshot(model, next))
				snaps = append(snaps, s)
			case 4, 5: // Restore an earlier snapshot, into this table or a fresh one
				s := snaps[int(arg)%len(snaps)]
				if op%6 == 5 {
					tab = New(ImplMutex)
				}
				tab.Restore(s)
				next = s.Next
				for k := range model {
					model[k] = make(map[VID]Real)
					for _, e := range s.Entries[k] {
						model[k][e.VID] = e.Real
					}
				}
			}
			for k := Kind(0); k < NumKinds; k++ {
				if got := tab.Len(k); got != len(model[k]) {
					t.Fatalf("Len(%v) = %d, model %d", k, got, len(model[k]))
				}
				if got := tab.Minted(k); got != next[k] {
					t.Fatalf("Minted(%v) = %d, model %d", k, got, next[k])
				}
				// Both ends of a window hold live entries.
				if w := tab.kinds[k].slots; len(w) > 0 && (w[0].VID == 0 || w[len(w)-1].VID == 0) {
					t.Fatalf("%v window %v has a hole at an end", k, w)
				}
			}
		}
		sameSnapshot(t, "final Snapshot", tab.Snapshot(), modelSnapshot(model, next))
	})
}

// modelSnapshot renders the model as the snapshot a table must produce.
func modelSnapshot(model map[Kind]map[VID]Real, next [NumKinds]uint64) *Snapshot {
	s := &Snapshot{Next: next}
	for k, m := range model {
		for v, r := range m {
			s.Entries[k] = append(s.Entries[k], Entry{VID: v, Real: r})
		}
		slices.SortFunc(s.Entries[k], func(a, b Entry) int { return cmp.Compare(a.VID, b.VID) })
	}
	return s
}
