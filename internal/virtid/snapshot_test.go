package virtid

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// mapSnapshot is a snapshot built without relying on the windows'
// order: every live slot merged into a map[VID]Real per kind, flattened
// and sorted. It is the oracle for Snapshot's in-order walk.
func mapSnapshot(t *Table) Snapshot {
	var s Snapshot
	for k := 0; k < NumKinds; k++ {
		s.Next[k] = t.kinds[k].next
		merged := make(map[VID]Real)
		for _, e := range t.kinds[k].slots {
			if e.VID != 0 {
				merged[e.VID] = e.Real
			}
		}
		for v, r := range merged {
			s.Entries[k] = append(s.Entries[k], Entry{VID: v, Real: r})
		}
		sort.Slice(s.Entries[k], func(i, j int) bool { return s.Entries[k][i].VID < s.Entries[k][j].VID })
	}
	return s
}

// fmtText is the fmt rendering Text must reproduce (the same calls
// the coordinator's digest oracle makes).
func fmtText(s Snapshot) string {
	var b strings.Builder
	for k := 0; k < NumKinds; k++ {
		fmt.Fprintf(&b, "vt(%d,%d", k, s.Next[k])
		for _, e := range s.Entries[k] {
			fmt.Fprintf(&b, ",%d=%x", e.VID, e.Real)
		}
		b.WriteString(");")
	}
	return b.String()
}

func sameSnapshot(t *testing.T, what string, got, want Snapshot) {
	t.Helper()
	if got.Next != want.Next {
		t.Fatalf("%s: Next = %v, want %v", what, got.Next, want.Next)
	}
	for k := 0; k < NumKinds; k++ {
		if !slices.Equal(got.Entries[k], want.Entries[k]) {
			t.Fatalf("%s: %v entries = %v, want %v", what, Kind(k), got.Entries[k], want.Entries[k])
		}
	}
	if text := string(got.Text()); text != fmtText(want) {
		t.Fatalf("%s: text %q, want %q", what, text, fmtText(want))
	}
}

// churn applies n random registrations and retirements.
func churn(rng *rand.Rand, tab *Table, live *[NumKinds][]VID, n int) {
	for ; n > 0; n-- {
		k := Kind(rng.Intn(NumKinds))
		if vs := live[k]; len(vs) > 0 && rng.Intn(3) == 0 {
			i := rng.Intn(len(vs))
			tab.Deregister(k, vs[i])
			live[k] = slices.Delete(vs, i, i+1)
			continue
		}
		live[k] = append(live[k], tab.Register(k, Real(rng.Uint64()>>uint(rng.Intn(64)))))
	}
}

// TestSnapshotRestoreRoundTripRandomTables: for random tables, the
// snapshot equals the map-built reference, restoring it into a fresh
// table and into the churned original both snapshot back to the same
// value, every captured handle resolves and every later one is dead.
func TestSnapshotRestoreRoundTripRandomTables(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tab := New(ImplSharded)
		var live [NumKinds][]VID
		churn(rng, &tab, &live, rng.Intn(80))
		snap := tab.Snapshot()
		sameSnapshot(t, "snapshot vs map reference", snap, mapSnapshot(&tab))

		fresh := New(ImplSharded)
		fresh.Restore(snap)
		sameSnapshot(t, "fresh table after Restore", fresh.Snapshot(), snap)
		sameSnapshot(t, "fresh table after Restore, by the map reference", mapSnapshot(&fresh), snap)

		later := live
		for k := range later {
			later[k] = slices.Clone(later[k])
		}
		churn(rng, &tab, &later, 1+rng.Intn(40))
		tab.Restore(snap)
		sameSnapshot(t, "churned table after Restore", tab.Snapshot(), snap)
		for k := 0; k < NumKinds; k++ {
			for _, e := range snap.Entries[k] {
				if real, ok := tab.Lookup(Kind(k), e.VID); !ok || real != e.Real {
					t.Fatalf("seed %d: %v %d resolves to (%#x, %v) after Restore, want %#x", seed, Kind(k), e.VID, real, ok, e.Real)
				}
			}
			for _, v := range later[k] {
				if uint64(v) > snap.Next[k] {
					if _, ok := tab.Lookup(Kind(k), v); ok {
						t.Fatalf("seed %d: %v %d, minted after the snapshot, resolves after Restore", seed, Kind(k), v)
					}
				}
			}
		}
	}
}

// shared reports whether two snapshots are one memoised capture: same
// entry storage, not merely equal entries.
func shared(a, b Snapshot) bool {
	for k := 0; k < NumKinds; k++ {
		if len(a.Entries[k]) != len(b.Entries[k]) ||
			(len(a.Entries[k]) > 0 && &a.Entries[k][0] != &b.Entries[k][0]) {
			return false
		}
	}
	return a.Next == b.Next
}

// TestSnapshotMemoInvalidatedByEveryWrite: two snapshots with no write
// between them are one capture and allocate nothing the second time; a
// Register, a Deregister and a Restore each force a fresh, correct one.
func TestSnapshotMemoInvalidatedByEveryWrite(t *testing.T) {
	tab := New(ImplSharded)
	comm := tab.Register(Comm, 0x44000000)
	tab.Register(Datatype, 0x4c00010d)
	first := tab.Snapshot()
	if again := tab.Snapshot(); !shared(first, again) {
		t.Fatal("two snapshots of an unchanged table do not share storage")
	}
	if n := testing.AllocsPerRun(20, func() { tab.Snapshot() }); n != 0 {
		t.Errorf("a memoised snapshot allocates %v times", n)
	}
	writes := []struct {
		name  string
		write func()
	}{
		{"Register", func() { tab.Register(Request, 0x98000001) }},
		{"Deregister", func() { tab.Deregister(Comm, comm) }},
		{"Restore", func() { tab.Restore(first) }},
		{"Restore of the current state", func() { tab.Restore(tab.Snapshot()) }},
	}
	for _, w := range writes {
		before := tab.Snapshot()
		w.write()
		after := tab.Snapshot()
		if shared(before, after) { // the datatype entry is always there to tell storage apart by
			t.Errorf("%s: the snapshot taken before it is still served", w.name)
		}
		sameSnapshot(t, "after "+w.name, after, mapSnapshot(&tab))
		if !shared(after, tab.Snapshot()) {
			t.Errorf("%s: the snapshot after it is not memoised", w.name)
		}
	}
	// A failed Deregister changes nothing and may keep the memo.
	before := tab.Snapshot()
	if tab.Deregister(Request, 999) {
		t.Fatal("Deregister of an unknown handle succeeded")
	}
	sameSnapshot(t, "after a failed Deregister", tab.Snapshot(), before)
}
