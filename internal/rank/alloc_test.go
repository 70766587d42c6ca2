package rank

import (
	"testing"

	"mana/internal/kernelsim"
	"mana/internal/virtid"
)

// TestCheckpointPathAllocationBudget pins what a capture and a restore
// may allocate, so per-region, per-shard or per-empty-slice allocations
// cannot come back unnoticed. Counts at the parent of the change that
// introduced the budget, and after it (sharded table, go1.24):
//
//	incremental capture of a rank that dirtied one page   13 -> 4
//	restore of a post-init image                         131 -> 23
//
// The four a capture keeps are the delta's region list, the dirty
// region's page list and the two communicator slot tables; the handle
// table's snapshot is shared with the previous capture. A restore is at
// 9 since the lower half comes from the shared layout and the upper half
// points at the image's regions: the space, its two slices of region
// state, the handle table and the small state.
func TestCheckpointPathAllocationBudget(t *testing.T) {
	r := New(0, kernelsim.Unpatched, virtid.ImplSharded, computeScript(64))
	net := testNet()
	postInit := r.CaptureImage(false)
	capture := testing.AllocsPerRun(50, func() {
		r.pc %= 60
		r.Execute(net) // one compute op: one marker, one dirty page
		if img := r.CaptureImage(true); img.Full || img.Delta.DirtyPages != 1 {
			t.Fatalf("capture is full=%v with %d dirty pages, want a one-page delta", img.Full, img.Delta.DirtyPages)
		}
	})
	// The marker write's copy of the page the previous capture froze —
	// a buffer and its header — is the workload's allocation, not the
	// capture's.
	capture -= 2
	restore := testing.AllocsPerRun(50, func() { r.Restore(postInit) })
	t.Logf("incremental capture: %v allocations; restore: %v", capture, restore)
	if capture > 6 {
		t.Errorf("incremental capture of a one-page delta allocates %v times, budget 6", capture)
	}
	if restore > 14 {
		t.Errorf("restore of a post-init image allocates %v times, budget 14", restore)
	}
}
