package virtid

import "testing"

// tables runs a subtest against a table priced as each implementation,
// so every behaviour below is pinned whichever design a job selects.
func tables(t *testing.T, f func(t *testing.T, tab *Table)) {
	t.Helper()
	for _, impl := range []Impl{ImplMutex, ImplSharded} {
		t.Run(impl.String(), func(t *testing.T) {
			tab := New(impl)
			f(t, &tab)
		})
	}
}

func TestRegisterLookupDeregister(t *testing.T) {
	tables(t, func(t *testing.T, tab *Table) {
		v := tab.Register(Comm, 0x44000000)
		if v == 0 {
			t.Fatal("Register returned the null VID")
		}
		if real, ok := tab.Lookup(Comm, v); !ok || real != 0x44000000 {
			t.Fatalf("Lookup = (%#x, %v), want (0x44000000, true)", real, ok)
		}
		// Kinds are disjoint namespaces: the same numeric VID must not
		// resolve in another kind.
		if _, ok := tab.Lookup(Datatype, v); ok {
			t.Error("comm VID resolved in the datatype namespace")
		}
		if !tab.Deregister(Comm, v) {
			t.Fatal("Deregister of a live mapping returned false")
		}
		if _, ok := tab.Lookup(Comm, v); ok {
			t.Error("deregistered VID still resolves")
		}
		if tab.Deregister(Comm, v) {
			t.Error("second Deregister of the same VID returned true")
		}
	})
}

func TestNullVIDNeverResolves(t *testing.T) {
	tables(t, func(t *testing.T, tab *Table) {
		tab.Register(Request, 1)
		if _, ok := tab.Lookup(Request, 0); ok {
			t.Error("the null VID resolved")
		}
	})
}

func TestVIDsAllocatedInDeterministicOrder(t *testing.T) {
	tables(t, func(t *testing.T, tab *Table) {
		for i := 1; i <= 100; i++ {
			if v := tab.Register(Request, Real(i)); v != VID(i) {
				t.Fatalf("registration %d allocated VID %d", i, v)
			}
		}
	})
}

func TestVIDsNeverReused(t *testing.T) {
	tables(t, func(t *testing.T, tab *Table) {
		a := tab.Register(Request, 10)
		tab.Deregister(Request, a)
		b := tab.Register(Request, 20)
		if b == a {
			t.Fatalf("VID %d was reused after deregistration", a)
		}
	})
}

func TestLenPerKind(t *testing.T) {
	tables(t, func(t *testing.T, tab *Table) {
		tab.Register(Comm, 1)
		tab.Register(Comm, 2)
		d := tab.Register(Datatype, 3)
		if tab.Len(Comm) != 2 || tab.Len(Datatype) != 1 || tab.Len(Request) != 0 {
			t.Fatalf("Len = (%d, %d, %d), want (2, 1, 0)",
				tab.Len(Comm), tab.Len(Datatype), tab.Len(Request))
		}
		tab.Deregister(Datatype, d)
		if tab.Len(Datatype) != 0 {
			t.Errorf("Len(Datatype) = %d after deregister, want 0", tab.Len(Datatype))
		}
	})
}

func TestSnapshotSortedAndComplete(t *testing.T) {
	tables(t, func(t *testing.T, tab *Table) {
		// Enough entries to make unsorted map iteration order visible.
		for i := 1; i <= 64; i++ {
			tab.Register(Request, Real(1000+i))
		}
		s := tab.Snapshot()
		if got := len(s.Entries[Request]); got != 64 {
			t.Fatalf("snapshot has %d request entries, want 64", got)
		}
		for i, e := range s.Entries[Request] {
			if e.VID != VID(i+1) {
				t.Fatalf("entry %d has VID %d; snapshot entries must be sorted by VID", i, e.VID)
			}
			if e.Real != Real(1000+i+1) {
				t.Fatalf("entry %d has real %#x, want %#x", i, e.Real, 1000+i+1)
			}
		}
		if s.Next[Request] != 64 {
			t.Errorf("snapshot Next[Request] = %d, want 64", s.Next[Request])
		}
		for k := range s.Entries {
			if k != int(Request) && len(s.Entries[k]) != 0 {
				t.Errorf("snapshot has %d %v entries, want none", len(s.Entries[k]), Kind(k))
			}
		}
	})
}

// TestRestoreRebuildsDeterministicallyAndKillsStaleHandles is the core
// restart property: restoring a snapshot reproduces the captured state
// exactly (including the allocation counters, so replayed registrations
// reallocate the same VIDs), and handles registered after the snapshot —
// the dead timeline's — no longer resolve.
func TestRestoreRebuildsDeterministicallyAndKillsStaleHandles(t *testing.T) {
	tables(t, func(t *testing.T, tab *Table) {
		comm := tab.Register(Comm, 0x44000000)
		dtype := tab.Register(Datatype, 0x4c000101)
		live := tab.Register(Request, 0x98000001)
		snap := tab.Snapshot()

		// The timeline continues past the checkpoint: a request completes
		// and new ones are posted.
		tab.Deregister(Request, live)
		stale1 := tab.Register(Request, 0x98000002)
		stale2 := tab.Register(Request, 0x98000003)

		tab.Restore(snap)
		if real, ok := tab.Lookup(Comm, comm); !ok || real != 0x44000000 {
			t.Fatalf("comm lookup after restore = (%#x, %v)", real, ok)
		}
		if _, ok := tab.Lookup(Datatype, dtype); !ok {
			t.Fatal("datatype did not survive restore")
		}
		if _, ok := tab.Lookup(Request, live); !ok {
			t.Fatal("request live at snapshot time does not resolve after restore")
		}
		for _, stale := range []VID{stale1, stale2} {
			if _, ok := tab.Lookup(Request, stale); ok {
				t.Fatalf("stale request VID %d from the dead timeline resolves after restore", stale)
			}
		}
		// Replay: the registrations re-executed after restart must
		// reallocate exactly the VIDs the dead timeline used.
		if v := tab.Register(Request, 0x98000002); v != stale1 {
			t.Fatalf("replayed registration allocated VID %d, want %d", v, stale1)
		}
		// And the restored table must snapshot back to the same bytes.
		again := *tab.Snapshot()                 // a copy: the table's snapshot is shared
		again.Next[Request] = snap.Next[Request] // undo the replay registration
		again.Entries[Request] = snap.Entries[Request]
		if again.Next != snap.Next {
			t.Errorf("restored Next counters %v != snapshot %v", again.Next, snap.Next)
		}
	})
}

func TestSnapshotOfRestoredTableIsIdentical(t *testing.T) {
	tables(t, func(t *testing.T, tab *Table) {
		for i := 0; i < 20; i++ {
			tab.Register(Comm, Real(0x100+i))
			tab.Register(Request, Real(0x200+i))
		}
		tab.Deregister(Request, 3)
		tab.Deregister(Request, 17)
		snap := tab.Snapshot()
		tab.Register(Request, 0xdead) // dead-timeline noise
		tab.Restore(snap)
		got := tab.Snapshot()
		if got.Next != snap.Next {
			t.Fatalf("Next = %v, want %v", got.Next, snap.Next)
		}
		for k := 0; k < NumKinds; k++ {
			if len(got.Entries[k]) != len(snap.Entries[k]) {
				t.Fatalf("kind %v has %d entries, want %d", Kind(k), len(got.Entries[k]), len(snap.Entries[k]))
			}
			for i := range got.Entries[k] {
				if got.Entries[k][i] != snap.Entries[k][i] {
					t.Fatalf("kind %v entry %d = %+v, want %+v", Kind(k), i, got.Entries[k][i], snap.Entries[k][i])
				}
			}
		}
	})
}

func TestParseImpl(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Impl
	}{{"mutex", ImplMutex}, {"sharded", ImplSharded}} {
		got, err := ParseImpl(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseImpl(%q) = (%v, %v), want (%v, nil)", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseImpl("lockfree-wait-what"); err == nil {
		t.Error("ParseImpl accepted an unknown implementation name")
	}
}

// TestImplMetadata pins each implementation's prices and names.
func TestImplMetadata(t *testing.T) {
	if ImplMutex.LookupCost() != MutexLookupCost || ImplSharded.LookupCost() != ShardedLookupCost {
		t.Error("LookupCost does not match the calibrated constants")
	}
	if ShardedLookupCost >= MutexLookupCost {
		t.Error("the sharded lookup must be calibrated cheaper than the mutex baseline")
	}
	if ImplMutex.String() != "mutex" || ImplSharded.String() != "sharded" {
		t.Error("Impl.String() names do not match the CLI vocabulary")
	}
	for k, want := range map[Kind]string{Comm: "comm", Datatype: "datatype", Request: "request", Kind(99): "unknown"} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), k.String(), want)
		}
	}
}

// TestShardedLookupZeroAllocs pins the acceptance property directly: the
// steady-state read path performs zero allocations, and so does request
// churn once the window has grown to its working width.
func TestShardedLookupZeroAllocs(t *testing.T) {
	tab := New(ImplSharded)
	vids := make([]VID, 64)
	for i := range vids {
		vids[i] = tab.Register(Comm, Real(i))
	}
	allocs := testing.AllocsPerRun(1000, func() {
		for _, v := range vids {
			if _, ok := tab.Lookup(Comm, v); !ok {
				t.Fatal("lookup miss")
			}
		}
	})
	if allocs != 0 {
		t.Errorf("Lookup allocates %.1f objects per 64 lookups, want 0", allocs)
	}
	// Two requests in flight: post one, retire the oldest.
	oldest, newest := tab.Register(Request, 1), tab.Register(Request, 2)
	allocs = testing.AllocsPerRun(1000, func() {
		v := tab.Register(Request, 3)
		if !tab.Deregister(Request, oldest) {
			t.Fatal("deregister of a live request failed")
		}
		oldest, newest = newest, v
	})
	if allocs != 0 {
		t.Errorf("FIFO request churn allocates %.1f objects per round, want 0", allocs)
	}
}
