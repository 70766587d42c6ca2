package kernelsim

import (
	"testing"

	"mana/internal/virtid"
	"mana/internal/vtime"
)

// mutexKernel is the kernel model a rank with the baseline (ImplMutex)
// handle table runs on.
func mutexKernel(p Personality) *Kernel { return NewForTable(p, virtid.ImplMutex) }

func TestPersonalityString(t *testing.T) {
	if Unpatched.String() != "unpatched" {
		t.Errorf("Unpatched.String() = %q", Unpatched.String())
	}
	if Patched.String() != "patched(FSGSBASE)" {
		t.Errorf("Patched.String() = %q", Patched.String())
	}
	if Personality(99).String() != "unknown" {
		t.Errorf("unknown personality should stringify as unknown")
	}
}

func TestFSSwitchCostPatchedMuchCheaper(t *testing.T) {
	u := mutexKernel(Unpatched)
	p := mutexKernel(Patched)
	if u.FSSwitchCost() <= p.FSSwitchCost() {
		t.Fatalf("unpatched FS switch (%v) should cost more than patched (%v)",
			u.FSSwitchCost(), p.FSSwitchCost())
	}
	// The paper attributes most of the ~2% overhead to this cost; the ratio
	// between syscall and FSGSBASE paths should be large (orders of
	// magnitude, not a few percent).
	if u.FSSwitchCost() < 50*p.FSSwitchCost() {
		t.Errorf("expected >=50x gap between unpatched and patched switch cost, got %v vs %v",
			u.FSSwitchCost(), p.FSSwitchCost())
	}
}

func TestRoundTripIsTwoSwitches(t *testing.T) {
	for _, pers := range []Personality{Unpatched, Patched} {
		k := mutexKernel(pers)
		if k.RoundTripSwitchCost() != 2*k.FSSwitchCost() {
			t.Errorf("%v: round trip %v != 2 * switch %v", pers, k.RoundTripSwitchCost(), k.FSSwitchCost())
		}
	}
}

func TestMANAPerCallOverheadComposition(t *testing.T) {
	k := mutexKernel(Unpatched)
	base := k.MANAPerCallOverhead(virtid.LookupCounts{}, false)
	if base != k.RoundTripSwitchCost() {
		t.Errorf("no-handle overhead %v != round trip %v", base, k.RoundTripSwitchCost())
	}
	// One lookup of each kind: the per-kind counts sum into the charge.
	withHandles := k.MANAPerCallOverhead(virtid.LookupCounts{Comm: 1, Datatype: 1, Request: 1}, false)
	if withHandles != base+3*virtid.MutexLookupCost {
		t.Errorf("handle overhead not additive: %v", withHandles)
	}
	withRecord := k.MANAPerCallOverhead(virtid.LookupCounts{Comm: 1}, true)
	want := base + virtid.MutexLookupCost + recordMetadataCost
	if withRecord != want {
		t.Errorf("recorded overhead = %v, want %v", withRecord, want)
	}
}

func TestOverheadMonotoneInHandles(t *testing.T) {
	k := mutexKernel(Patched)
	prev := vtime.Duration(-1)
	for n := uint64(0); n < 10; n++ {
		d := k.MANAPerCallOverhead(virtid.LookupCounts{Request: n}, false)
		if d <= prev {
			t.Fatalf("overhead not strictly increasing at n=%d: %v <= %v", n, d, prev)
		}
		prev = d
	}
}

// TestLookupCostTracksVirtidImpl pins the wiring between the selected
// table implementation and the per-call charge: a kernel calibrated for
// the sharded table charges cheaper MPI calls than the mutex baseline.
func TestLookupCostTracksVirtidImpl(t *testing.T) {
	mutex := NewForTable(Unpatched, virtid.ImplMutex)
	if got := mutex.VirtualizationLookupOverhead(virtid.LookupCounts{Comm: 1}); got != virtid.MutexLookupCost {
		t.Errorf("one lookup on the mutex table costs %v, want %v", got, virtid.MutexLookupCost)
	}
	sharded := NewForTable(Unpatched, virtid.ImplSharded)
	calls := virtid.LookupCounts{Comm: 1, Datatype: 1, Request: 1}
	if m, s := mutex.MANAPerCallOverhead(calls, true), sharded.MANAPerCallOverhead(calls, true); s >= m {
		t.Errorf("sharded per-call overhead %v should be below mutex %v", s, m)
	}
	want := 3 * (virtid.MutexLookupCost - virtid.ShardedLookupCost)
	got := mutex.MANAPerCallOverhead(calls, true) - sharded.MANAPerCallOverhead(calls, true)
	if got != want {
		t.Errorf("per-call saving = %v, want %v (3 lookups' worth)", got, want)
	}
}

func TestAuxiliaryCostsPositive(t *testing.T) {
	k := mutexKernel(Unpatched)
	if k.HandleWriteCost() <= 0 || recordMetadataCost <= 0 || k.SyscallCost() <= 0 {
		t.Errorf("auxiliary costs must be positive")
	}
	if k.PageScanCost() <= 0 || k.PageHashCost() <= 0 {
		t.Errorf("incremental-capture costs must be positive")
	}
	// Reading one dirty bit must be much cheaper than hashing the page it
	// guards, or incremental capture could never beat a full copy.
	if 10*k.PageScanCost() > k.PageHashCost() {
		t.Errorf("page scan %v should be well below page hash %v", k.PageScanCost(), k.PageHashCost())
	}
}
