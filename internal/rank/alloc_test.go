package rank

import (
	"runtime"
	"testing"
	"unsafe"

	"mana/internal/kernelsim"
	"mana/internal/scenario"
	"mana/internal/virtid"
)

// TestNewAllocationBudget pins what building one rank of a default job
// costs, so a per-rank table, clock or kernel object cannot grow back
// unnoticed. At the parent of the change that introduced the budget a
// rank was 2,118 B in 12 allocations, 1,211 B of them the sharded handle
// table's 48 shards; the single-owner table, with the clock and kernel
// embedded in the Rank, leaves the Rank itself, its address space and
// its small slices.
func TestNewAllocationBudget(t *testing.T) {
	const ranks = 256
	spec, err := scenario.Load("default")
	if err != nil {
		t.Fatal(err)
	}
	progs, err := spec.Compile(scenario.Params{Ranks: ranks, Steps: 5, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	built := make([]*Rank, ranks)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for id := range built {
		built[id] = New(id, kernelsim.Unpatched, virtid.ImplSharded, progs[id])
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / ranks
	mallocs := float64(after.Mallocs-before.Mallocs) / ranks
	t.Logf("rank.New: %.0f B in %.2f allocations per rank", bytes, mallocs)
	if bytes > 1200 || mallocs > 8 {
		t.Errorf("rank.New allocates %.0f B in %.2f allocations per rank, budget 1,200 B and 8", bytes, mallocs)
	}
	runtime.KeepAlive(built)
}

// TestCheckpointPathAllocationBudget pins what a capture and a restore
// may allocate, so per-region, per-shard or per-empty-slice allocations
// cannot come back unnoticed. Counts at the parent of the change that
// introduced the budget, and after it (sharded table, go1.24):
//
//	incremental capture of a rank that dirtied one page   13 -> 4
//	restore of a post-init image                         131 -> 23
//
// The four a capture kept are the delta's region list, the dirty
// region's page list and the two communicator slot tables; the handle
// table's snapshot is shared with the previous capture. A fifth came with
// the image record that points at its payloads: the compute op changed
// the rank's Stats, so the capture allocates their new value (4 -> 5,
// within the budget of 6). A restore is at
// 5 since the lower half comes from the shared layout, the upper half
// points at the image's regions and the handle table refills its own
// slots: the space, its slice of region state and the small state.
//
// A capture of a rank that did nothing since its last one, full or
// incremental, shares that commit's snapshot or region list (memsim's
// recapture), the handle table's snapshot and the Stats record.
// Through CaptureImage it keeps only the two communicator slot tables
// (2; the Image itself stays on the stack); into a link's slot, after a
// capture whose slot tables equal the rank's (the previous rank of the
// link, as the coordinator passes it), it shares those too and allocates
// nothing (2 -> 0).
func TestCheckpointPathAllocationBudget(t *testing.T) {
	r := New(0, kernelsim.Unpatched, virtid.ImplSharded, computeScript(64))
	net := testNet()
	postInit := r.CaptureImage(false)
	capture := testing.AllocsPerRun(50, func() {
		r.pc %= 60
		r.marked = r.pc
		r.Execute(net) // one compute op: one marker, one dirty page at capture
		if img := r.CaptureImage(true); img.Full || img.Delta.DirtyPages != 1 {
			t.Fatalf("capture is full=%v with %d dirty pages, want a one-page delta", img.Full, img.Delta.DirtyPages)
		}
	})
	// The marker's copy of the page the previous capture froze — a
	// buffer and its header, made when the capture flushes the marker —
	// is the workload's allocation, not the capture's.
	capture -= 2
	recapture := testing.AllocsPerRun(50, func() {
		if img := r.CaptureImage(true); img.Full || img.Delta.DirtyPages != 0 {
			t.Fatalf("recapture is full=%v with %d dirty pages, want a clean delta", img.Full, img.Delta.DirtyPages)
		}
	})
	fullRecapture := testing.AllocsPerRun(50, func() { r.CaptureImage(false) })
	var prev, slot Image
	r.CaptureInto(&prev, true, nil)
	sharedRecapture := testing.AllocsPerRun(50, func() {
		r.CaptureInto(&slot, true, &prev)
		if slot.Full || slot.Delta.DirtyPages != 0 {
			t.Fatalf("recapture is full=%v with %d dirty pages, want a clean delta", slot.Full, slot.Delta.DirtyPages)
		}
	})
	sharedFullRecapture := testing.AllocsPerRun(50, func() { r.CaptureInto(&slot, false, &prev) })
	restore := testing.AllocsPerRun(50, func() { r.Restore(postInit) })
	t.Logf("incremental capture: %v allocations; clean recapture: %v incremental, %v full, into a slot %v and %v; restore: %v",
		capture, recapture, fullRecapture, sharedRecapture, sharedFullRecapture, restore)
	if capture > 6 {
		t.Errorf("incremental capture of a one-page delta allocates %v times, budget 6", capture)
	}
	if recapture > 2 || fullRecapture > 2 {
		t.Errorf("clean recapture allocates %v times incremental and %v full, budget 2: the communicator slot tables",
			recapture, fullRecapture)
	}
	if sharedRecapture != 0 || sharedFullRecapture != 0 {
		t.Errorf("clean recapture into a slot after equal slot tables allocates %v times incremental and %v full, want 0",
			sharedRecapture, sharedFullRecapture)
	}
	if restore > 8 {
		t.Errorf("restore of a post-init image allocates %v times, budget 8", restore)
	}
}

// TestRankSize pins the Rank at 512 bytes, the top of its size class:
// a field more moves every rank into the 576-byte class, which wide-idle
// (65,536 ranks, no checkpoint) pays in peak RSS.
func TestRankSize(t *testing.T) {
	if size := unsafe.Sizeof(Rank{}); size > 512 {
		t.Errorf("Rank is %d bytes, budget 512: the next size class is 576 B per rank of wide-idle's peak RSS", size)
	}
}

// TestImageSize pins the checkpoint image record at 256 bytes (544
// before it pointed at its memory, handle-table and stats payloads
// instead of embedding copies): every rank's slot in every retained link
// is one, so a field more grows the store by ranks × retained links.
func TestImageSize(t *testing.T) {
	if size := unsafe.Sizeof(Image{}); size > 256 {
		t.Errorf("Image is %d bytes, budget 256: one per rank per retained link", size)
	}
}

// TestMarkerPageRunAllocations pins what flushing one page-run of state
// markers allocates: at most the page's one new buffer and its header,
// at the length the furthest marker needs — not a chain of buffers grown
// a size class at a time — and nothing when the page is the rank's own
// and already long enough.
func TestMarkerPageRunAllocations(t *testing.T) {
	r := New(0, kernelsim.Unpatched, virtid.ImplSharded, computeScript(600))
	net := testNet()
	r.Execute(net)
	r.Mem() // app.state has contents, a page table and page 0's 64-byte buffer now
	for r.PC() < 400 {
		r.Execute(net)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r.Mem() // 399 markers into page 0, up to byte 3,200
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n > 2 {
		t.Errorf("a 399-marker page-run into a 64-byte page allocated %d objects, want at most its new buffer and header", n)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		r.pc, r.marked = 400, 400
		for r.PC() < 500 {
			r.Execute(net)
		}
		r.Mem()
	}); allocs != 0 {
		t.Errorf("a page-run into an owned full-size page allocates %v times, want 0", allocs)
	}
}
