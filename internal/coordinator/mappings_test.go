package coordinator

import (
	"reflect"
	"testing"
	"unsafe"

	"mana/internal/faultplan"
	"mana/internal/memsim"
	"mana/internal/rank"
	"mana/internal/scenario"
	"mana/internal/vtime"
)

// descriptor identifies one upper-half region descriptor of a rank's
// address space: a pointer to it, which keeps it alive, and whether it
// maps heap.
type descriptor struct {
	ptr  unsafe.Pointer
	heap bool
}

// upperDescriptors returns each rank's upper-half region descriptors, in
// address order. Which descriptor a live region points at is memsim's
// own business — no exported call hands it out, and an observer that no
// run reaches would join cmd/manasim/testdata/unreached.txt — so this
// reads AddressSpace.regions[UpperHalf][i].desc by reflection, without
// writing anything.
func upperDescriptors(ranks []*rank.Rank) [][]descriptor {
	out := make([][]descriptor, len(ranks))
	for i, r := range ranks {
		upper := reflect.ValueOf(r.Mem()).Elem().FieldByName("regions").Index(int(memsim.UpperHalf))
		for j := 0; j < upper.Len(); j++ {
			desc := upper.Index(j).FieldByName("desc")
			kind := memsim.Kind(desc.Elem().FieldByName("Kind").Int())
			out[i] = append(out[i], descriptor{desc.UnsafePointer(), kind == memsim.KindHeap})
		}
	}
	return out
}

// TestRestartReplaysSharedSbrk: the ranks of a job share one mapping
// table, and a restart keeps it, so a heap growth replayed after the
// restart takes the very descriptor the job mapped before the crash
// instead of allocating one of its own, and every rank takes the same.
func TestRestartReplaysSharedSbrk(t *testing.T) {
	cfg := smallConfig(4, 40)
	cfg.Triggers = []Trigger{{At: vtime.Time(4 * vtime.Millisecond)}}
	cfg.Faults = crashAfter(1, 4*vtime.Millisecond)
	c := New(cfg)
	if out, err := c.Run(); err != nil || out != Failed {
		t.Fatalf("first run: %v, %v; want the injected crash", out, err)
	}
	before := upperDescriptors(c.Ranks())
	if err := c.Restart(); err != nil {
		t.Fatal(err)
	}
	restored := upperDescriptors(c.Ranks())
	completeWithRecovery(t, c)
	after := upperDescriptors(c.Ranks())

	replayed, heapRestored := 0, 0
	for id := range after {
		for _, d := range restored[id] {
			if d.heap {
				heapRestored++
			}
		}
		for i := len(restored[id]); i < len(after[id]); i++ {
			if after[id][i] != after[0][i] {
				t.Errorf("rank %d: heap region %d mapped after the restart is not rank 0's descriptor", id, i)
			}
			if i < len(before[id]) {
				replayed++
				if after[id][i] != before[id][i] {
					t.Errorf("rank %d: the sbrk replayed into region %d allocated a descriptor, not the job's", id, i)
				}
			}
		}
	}
	if replayed == 0 || heapRestored == 0 {
		t.Fatalf("%d heap regions restored and %d sbrks replayed, want both: the restart shows nothing", heapRestored, replayed)
	}
	if got, want := c.FinalFingerprint(), faultFreeFingerprint(t, cfg); got != want {
		t.Errorf("recovered fingerprint %016x, fault-free %016x", got, want)
	}
}

// TestDeepStencilMapsOneHeapDescriptorPerSbrk pins the saving on the
// benchmark's deep-stencil job (512 ranks x 800 steps of the stencil
// spec): its 512 ranks grow their heaps alike, so the job holds one heap
// descriptor per sbrk position, 133, where each rank used to allocate
// its own, 68,096. Each rank's region table is exactly full, 140 entries
// in 140, where growing it by append left 140 in 255.
func TestDeepStencilMapsOneHeapDescriptorPerSbrk(t *testing.T) {
	const ranks, steps = 512, 800
	cfg := BaseConfig()
	cfg.Ranks = ranks
	cfg.Programs = mustPrograms("stencil", scenario.Params{Ranks: ranks, Steps: steps, Seed: 42})
	c := New(cfg)
	if out, err := c.Run(); err != nil || out != Completed {
		t.Fatalf("run: %v, %v", out, err)
	}
	distinct := map[unsafe.Pointer]bool{}
	mapped := 0
	for _, descs := range upperDescriptors(c.Ranks()) {
		for _, d := range descs {
			if d.heap {
				distinct[d.ptr] = true
				mapped++
			}
		}
	}
	if mapped != ranks*133 || len(distinct) != 133 {
		t.Errorf("%d heap regions over %d ranks hold %d descriptors, want %d regions and 133 descriptors",
			mapped, ranks, len(distinct), ranks*133)
	}
	exactTables(t, c.Ranks())
}

// exactTables fails unless every rank's upper-half region table is
// exactly as long as it is large: each rank reserved the sbrks its
// program made, so heap growth never regrew a table. It returns the
// entries the ranks hold in all.
func exactTables(t *testing.T, ranks []*rank.Rank) (entries int) {
	t.Helper()
	for _, r := range ranks {
		n, capacity := upperTable(r)
		if n != capacity {
			t.Errorf("rank %d: upper region table holds %d entries in %d", r.ID(), n, capacity)
		}
		entries += n
	}
	return entries
}

// TestRestartedTablesAreSizedOnce: a restarted rank's table has room for
// exactly the sbrks its program makes after the image's pc, so after a
// job that crashes and recovers several times — a fallback past a
// restart fault, then a virtual-time crash, as ckpt-recover's plan does
// — every table is still exactly full, and the recovered fingerprint is
// the fault-free one.
func TestRestartedTablesAreSizedOnce(t *testing.T) {
	cfg := faultConfig()
	cfg.Programs = mustPrograms("default", scenario.Params{Ranks: cfg.Ranks, Steps: 60, Seed: 42})
	cfg.Faults = []faultplan.Fault{
		{Anchor: faultplan.AtCheckpointCommit, N: 2, Kind: faultplan.RankCrash, Delay: 250 * vtime.Microsecond},
		{Anchor: faultplan.AtRestart, N: 1, Kind: faultplan.RankCrash},
		{Anchor: faultplan.AtVirtualTime, Time: vtime.Time(12 * vtime.Millisecond), Kind: faultplan.RankCrash},
	}
	c := New(cfg)
	completeWithRecovery(t, c)
	if n := len(c.Restarts()); n < 2 {
		t.Fatalf("%d restarts, want 2: the plan did not fire", n)
	}
	sbrks := cfg.Programs[0].Sbrks()
	if got, want := exactTables(t, c.Ranks()), cfg.Ranks*(7+sbrks); got != want {
		t.Errorf("the ranks hold %d upper entries, want %d (7 + %d sbrks each)", got, want, sbrks)
	}
	if got, want := c.FinalFingerprint(), faultFreeFingerprint(t, cfg); got != want {
		t.Errorf("recovered fingerprint %016x, fault-free %016x", got, want)
	}
}
